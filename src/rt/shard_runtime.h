// Thread-per-shard worker tier of the real runtime.
//
// Multiplexing all P shard engines of a deployment over one epoll thread
// would never turn the simulated shard speedup into real parallelism.
// ShardRuntime splits a replica into the tiers that parallel SMR designs
// (Marandi et al.'s P-SMR, Whittaker et al.'s compartmentalization) arrive at
// (P=1 is one worker):
//
//   * the I/O tier (rt::Node's epoll thread) owns the listen socket and the
//     client connections, dials and re-dials peers, and batches client
//     commands per shard for one node-wide batch window before handing each
//     worker one kBatch composite;
//   * one worker thread per shard owns that shard's protocol engine, store
//     slice, timers and its own TCP connection to the same shard on every
//     peer. It reads, decodes, encodes and writes that peer traffic itself
//     from a per-worker epoll loop (src/rt/connection.h), so a protocol
//     message goes engine -> socket -> peer engine with no thread hop. Workers
//     never touch a lock or another shard's state;
//   * with smr::DeploymentOptions::executor_threads > 0, a third tier hangs
//     off each shard worker: an exec::ExecPool applying the shard's executed
//     commands concurrently across commute lanes (ordering stays on the shard
//     worker; only state application fans out — see src/exec/exec_pool.h).
//
// The I/O tier and a worker are joined by two bounded SPSC mailboxes
// (src/rt/mailbox.h): an inbox carrying submissions, client announcements and
// handed-over peer sockets, and an outbox carrying client replies. A worker
// replies only to clients its node announced (the clients that submit through
// this node): every replica executes every command, but only the client's own
// node has anyone to answer, so the other replicas push nothing and never
// wake their I/O thread for it. Catch-up entries are the exception — their
// completions all go out, so a restarted node refills its completion cache.
// Shard engines share no keys and never talk to each other. An idle worker
// blocks in epoll on its sockets plus an eventfd doorbell, with its next timer
// deadline as the timeout, so an idle replica burns no CPU.
//
// The simulator path is untouched: threading is a property of the TCP runtime
// only, and the engines driven here are the same sans-I/O objects the
// simulator drives single-threadedly (the determinism pins and P=1
// byte-identity do not move).
#ifndef SRC_RT_SHARD_RUNTIME_H_
#define SRC_RT_SHARD_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/rt/mailbox.h"
#include "src/smr/command.h"
#include "src/smr/deployment.h"

namespace rt {

// One item on an (I/O -> shard) inbox edge. Pushing moves the command into a
// ring slot and popping moves it out again, so the edge itself adds no
// per-item heap allocation (pinned by alloc_test).
struct ShardInput {
  enum class Kind : uint8_t {
    kNone,
    kSubmit,  // one client command, or the kBatch composite of a batch window
    kClient,  // client `client` submits through this node: reply to it
    kPeer,    // a connected socket to shard `from` on a peer, hello exchanged
    kReset,   // fault drill: drop the connection to peer `from`
  };
  Kind kind = Kind::kNone;
  smr::Command cmd;            // kSubmit
  uint64_t client = 0;         // kClient
  common::ProcessId from = 0;  // kPeer/kReset: the peer
  int fd = -1;                 // kPeer: the socket
  std::string unread;          // kPeer: bytes read past the hello
};

// One item on a (shard -> I/O) outbox edge: a completed command of a client
// announced to the worker, or of a catch-up entry.
struct ShardOutput {
  uint64_t client = 0;
  uint64_t seq = 0;
  std::string value;
  bool dropped = false;
};

// Consumes drained worker output on the I/O thread. Implementations queue
// frames per connection and flush each touched socket once per drain, so one
// drain pass writes each socket at most once no matter how many shards fed it.
class ShardOutputSink {
 public:
  virtual ~ShardOutputSink() = default;
  virtual void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                             bool dropped) = 0;
};

class ShardRuntime {
 public:
  // Slots per (I/O <-> shard) mailbox edge. A ring reserves its storage up
  // front but builds each slot only when its first lap reaches it, so the
  // capacity bounds a node's memory, not its start-up cost.
  static constexpr size_t kMailboxSlots = 8192;

  // A connected peer socket for one shard, handed over at Start().
  struct PeerSocket {
    common::ProcessId peer = common::kInvalidProcess;
    int fd = -1;
    std::string unread;  // bytes already read past the hello
  };

  // The deployment is borrowed and must outlive the runtime. Its per-shard
  // engines/stores are owned by the workers between Start() and Stop(): no
  // other thread may touch them (including stats()) until the workers join.
  explicit ShardRuntime(smr::Deployment* deployment);
  ~ShardRuntime();

  // `fn` is invoked from worker threads whenever output lands in an empty
  // outbox; it must be thread-safe and cheap (ring an eventfd the I/O loop
  // watches). Set before Start().
  void set_output_notify(std::function<void()> fn) { output_notify_ = std::move(fn); }
  // `fn(shard, peer)` is invoked from a worker thread when its connection to
  // `peer` is lost (not when it is replaced or the worker stops), so the I/O
  // tier can re-dial. Thread-safe, rare. Set before Start().
  void set_peer_lost(std::function<void(uint32_t, common::ProcessId)> fn) {
    peer_lost_ = std::move(fn);
  }

  // Spawns one worker per shard with its initial peer sockets (sockets[s] for
  // shard s); each worker binds and starts its engine on its own thread, then
  // serves its sockets, inbox and timers until Stop().
  void Start(common::ProcessId self, uint32_t n,
             std::vector<std::vector<PeerSocket>> sockets);
  // Signals every worker and joins them. Idempotent; safe if never started.
  void Stop();
  // Joins a single shard's worker, which closes its peer sockets on the way
  // out (fault drill: a dead shard thread must not wedge the node — its input
  // is dropped). Returns false if already stopped.
  bool StopOne(uint32_t shard);
  // Crash drill one level down: stops one executor lane of one shard's pool
  // (deployment executor_threads > 0 only). The shard stays live; commands
  // routed to the dead lane are lost, everything else keeps applying. Returns
  // false when there is no pool, or the lane/shard is already stopped.
  bool StopOneExecutor(uint32_t shard, uint32_t lane);

  // I/O-thread entry point: moves `in` into the shard's inbox. On a full
  // inbox it leaves `in` untouched and returns false — the caller drains
  // outboxes (freeing worker progress) and retries, or gives up with
  // DropInput. A stopped shard swallows the input (closing a handed-over
  // socket) and returns true.
  bool Push(uint32_t shard, ShardInput& in);
  // Gives up on an input that could not be pushed: counts it, closes its socket.
  void DropInput(ShardInput& in);

  // Drains every outbox into the sink (I/O thread only). Returns items drained.
  size_t DrainOutputs(ShardOutputSink& sink);
  // True if any outbox holds output (I/O-thread recheck after re-arming).
  bool HasOutput() const;

  uint32_t partitions() const { return partitions_; }
  bool stopped(uint32_t shard) const;
  // Client commands applied across all shards: a sum of per-shard atomics,
  // readable any time (each load acquires its worker's release increments).
  uint64_t applied_ops() const;
  // Inputs dropped on full shard inboxes (monitoring; atomic).
  uint64_t inputs_dropped() const {
    return inputs_dropped_.load(std::memory_order_relaxed);
  }
  // Client replies pushed onto outboxes across all shards (monitoring; a sum
  // of per-shard atomics).
  uint64_t outputs_pushed() const;

  // Per-worker socket state, readable from any thread: the peer connections
  // shard `shard`'s worker holds open, and the largest write buffer any of
  // them held after a flush (bytes waiting for a slow or stalled reader).
  uint32_t peer_connections(uint32_t shard) const;
  uint64_t max_queued_bytes(uint32_t shard) const;

 private:
  class Worker;

  smr::Deployment* deployment_;
  uint32_t partitions_;
  std::function<void()> output_notify_;
  std::function<void(uint32_t, common::ProcessId)> peer_lost_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> inputs_dropped_{0};
  bool started_ = false;
};

}  // namespace rt

#endif  // SRC_RT_SHARD_RUNTIME_H_
