// Real-runtime replica node: runs one smr::Deployment — bare or sharded — over TCP.
//
// A node listens on one port for both peer and client connections (frame
// format: src/rt/wire.h). Peers form a full mesh: node i dials every peer
// j > i; lower ids accept. Client ClientRequest commands are routed through the
// deployment's smr::Partitioner and the reply is sent when the command
// executes locally.
//
// Thread-per-shard: one worker thread per shard (src/rt/shard_runtime.h) owns
// that shard's engine *and* its own connection to the same shard on every
// peer, so protocol traffic never crosses the epoll thread; P=1 runs one
// worker. The epoll thread keeps the listen socket and the client
// connections, dials and re-dials every (peer, shard) connection and hands
// each one to its shard's worker, and batches client commands per shard for
// one node-wide batch window before handing each worker one kBatch composite.
// While the window is open, a client connection that delivered input is not
// read again until the window closes, so later arrivals wait in the kernel
// instead of waking the epoll thread. Workers reply only to the clients this
// node announced to them (those that submit here).
//
// Fault tolerance: a lost peer connection is re-dialed with backoff by the
// dialing side per the mesh rule above; the accepting side waits for the fresh
// hello. A node constructed over a non-empty data_dir recovers its stores from
// disk (snapshot + log tail, see src/dur), then — once the mesh re-forms —
// each shard worker advertises its executed-dot frontier to every peer; peers
// stream back the commits it missed, which apply through the normal executed path
// (the durable admit filter deduplicates). Clients that vanish mid-request are
// reaped too; on durable nodes a reconnecting client may resubmit the same
// (client, seq) and gets the cached result instead of a re-execution.
#ifndef SRC_RT_NODE_H_
#define SRC_RT_NODE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chk/checker.h"
#include "src/codec/codec.h"
#include "src/rt/connection.h"
#include "src/rt/event_loop.h"
#include "src/rt/shard_runtime.h"
#include "src/smr/deployment.h"

namespace rt {

struct PeerAddress {
  std::string host;
  uint16_t port = 0;
};

class Node final : public ShardOutputSink, public Connection::Handler {
 public:
  // The deployment (one node's full replica assembly: engine, per-shard stores,
  // batching) is borrowed and must outlive the node. A peer address with port
  // 0 is a placeholder until set_peers() (see Listen).
  Node(common::ProcessId id, std::vector<PeerAddress> peers,
       smr::Deployment* deployment);
  ~Node();

  // Binds and listens; returns false (socket closed) on failure. Port 0 binds
  // an ephemeral port, readable through port() afterwards: bind every node
  // first, then hand each the resolved table with set_peers() before Run().
  bool Listen();
  // Replaces the address table (same size; before Run()).
  void set_peers(std::vector<PeerAddress> peers);
  // Dials higher-id peers, waits for lower-id peers, then starts the shard
  // workers and serves until Stop(). Blocks.
  void Run();
  // Thread-safe.
  void Stop();

  uint16_t port() const { return peers_[self_].port; }

  // Client commands applied to this node's stores so far (sub-commands of a batch
  // count individually; noOps excluded). Safe to read from other threads: tests
  // poll it to detect quiescence before stopping the cluster.
  uint64_t applied_ops() const { return shards_.applied_ops(); }

  // The shard workers. Exposed for fault drills (tests stop one shard's
  // worker and assert clean node shutdown).
  ShardRuntime* shard_runtime() { return &shards_; }

  // Fault drill, thread-safe: shuts down this node's connection to `peer` that
  // carries shard `shard`, as if the network dropped it. The mesh re-dials it
  // like any other lost link.
  void ResetPeerConnection(common::ProcessId peer, uint32_t shard);

  // ShardOutputSink (I/O thread): records the completion (durable nodes) and
  // queues the reply on the connection of the client waiting for it, if any;
  // OnWorkerOutput flushes each touched socket once per pass.
  void OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                     bool dropped) override;

  // Connection::Handler (I/O thread).
  void OnFrame(Connection* conn, const uint8_t* data, size_t size) override;
  void OnClosed(Connection* conn) override;

 private:
  // A (peer, shard) connection slot.
  using PeerLane = std::pair<common::ProcessId, uint32_t>;
  // A peer socket held (unread, unwatched) until the workers start.
  struct HeldSocket {
    int fd = -1;
    std::string unread;
  };

  void AcceptReady();
  void OnPeerHello(Connection* conn, codec::Reader& r);
  // A (peer, lane) connection is up: its socket goes to the lane's worker, or
  // is held until the workers start.
  void HandOffPeerSocket(PeerLane pl, int fd, std::string unread);
  void NotePeerUp(PeerLane pl);
  // Starts the shard workers once every (peer, shard) connection is up.
  void MaybeStartEngine();
  // Connection teardown: a closed socket schedules a reap on the loop (never
  // destroyed mid-callback); the reap scrubs every raw pointer to the
  // connection (waiting_clients_, dirty_conns_, paused_conns_) before freeing
  // it. A worker that lost a peer connection reports it through
  // OnShardPeerLost, which schedules a backoff re-dial when the lost peer is
  // one this node dials.
  void ReapConnections();
  void ForgetConn(Connection* conn);
  void OnShardPeerLost(uint32_t shard, common::ProcessId peer);
  void ScheduleRedial(PeerLane pl);
  void DialPeer(PeerLane pl);
  void OnDialReady(PeerLane pl, int fd);
  // Completion bookkeeping for durable client idempotency (no-op otherwise).
  void CompleteClient(uint64_t client, uint64_t seq, const std::string& value,
                      bool dropped);
  // A client command for `shard`, batched for the node's batch window (P > 1)
  // before it reaches the worker. A client's first command is preceded by its
  // announcement to every worker.
  void SubmitToShard(uint32_t shard, smr::Command& cmd);
  void AnnounceClient(uint64_t client);
  void FlushBatch(uint32_t shard);
  // Closes the batch window: reads every paused client connection (their
  // commands join this window), then flushes every shard's batch.
  void CloseWindow();
  // Moves `in` into its shard's inbox, draining worker outboxes while the
  // inbox is full (never a blocking wait; bounded retries, then the input is
  // dropped, counted, and false returned).
  bool RouteInput(uint32_t shard, ShardInput& in);
  // Doorbell callback — drain outboxes, flush dirty sockets.
  void OnWorkerOutput();
  size_t DrainShardOutputs();
  void MarkDirty(Connection* conn);
  void FlushDirty();
  // Encodes a ClientReply frame into encode_scratch_ and returns it.
  const std::vector<uint8_t>& EncodeReply(uint64_t client, uint64_t seq,
                                          std::string&& value, bool dropped);
  // Sends a ClientReply frame on a specific connection at once (rejection and
  // completion-cache paths).
  void SendReply(Connection* conn, uint64_t client, uint64_t seq, std::string&& value,
                 bool dropped);

  common::ProcessId self_;
  std::vector<PeerAddress> peers_;
  smr::Deployment* deployment_;
  // Connections per peer: one per shard.
  uint32_t lanes_ = 0;

  EventLoop loop_;
  int listen_fd_ = -1;
  std::map<PeerLane, HeldSocket> held_;  // until the workers start
  std::vector<std::unique_ptr<Connection>> anonymous_;  // pre-hello + client conns
  // (client, seq) -> connection serving that client.
  std::unordered_map<chk::CmdKey, Connection*, chk::CmdKeyHash> waiting_clients_;
  // Reconnect state: in-progress non-blocking dials and the re-dial backoff
  // of every lost connection still waiting to reconnect (erased on connect).
  std::map<PeerLane, int> dialing_;
  std::map<PeerLane, common::Duration> redial_backoff_;
  bool reap_scheduled_ = false;
  // Durable client idempotency: commands submitted but not yet completed, and
  // each client's last completed (seq, result) for resubmit short-circuiting.
  // The workers send only the completions of clients that submitted through
  // this node, plus catch-up entries — enough, since a client always
  // reconnects to the node it talks to.
  std::unordered_set<chk::CmdKey, chk::CmdKeyHash> in_flight_;
  std::unordered_map<uint64_t, std::pair<uint64_t, std::string>> client_done_;
  // Client commands that arrived before the peer mesh completed; submitted the
  // moment the workers start.
  std::vector<smr::Command> pending_submits_;
  // Reused (clear-not-reallocate) encode scratch for client reply frames.
  codec::Writer encode_scratch_;
  bool engine_started_ = false;

  // Ingress batching: one window per node opens when a client command is
  // batched and none is open, and closes batch_window later; each shard's
  // commands then go to its worker as one kBatch composite (a shard reaching
  // batch_max flushes at once). While the window is open, client connections
  // that delivered input are paused.
  common::Duration batch_window_ = 0;
  size_t batch_max_ = 64;
  enum class Window : uint8_t { kClosed, kOpen, kClosing };
  Window window_ = Window::kClosed;
  std::vector<std::vector<smr::Command>> batches_;  // per shard
  std::vector<Connection*> paused_conns_;
  // Clients announced to every worker (their replies come back here).
  std::unordered_set<uint64_t> announced_clients_;
  codec::Writer batch_writer_;
  smr::PayloadPool batch_pool_;
  ShardInput route_;  // reused inbox envelope
  // Declaration order matters: workers ring out_bell_, post to loop_ and
  // reference the deployment, so shards_ (declared last) is destroyed — and
  // its workers joined — first.
  Doorbell out_bell_;
  std::vector<Connection*> dirty_conns_;
  ShardRuntime shards_;
};

// Minimal synchronous client for examples and tests. Also supports pipelined
// use (a fixed window of outstanding requests per connection) via Send/RecvReply;
// Call is Send + RecvReply with one outstanding request.
//
// With Options::max_retries > 0, Call() survives a dying server socket: it
// reconnects with backoff and resubmits the same (client, seq). Durable nodes
// deduplicate the resubmission (cached result for a completed command,
// re-pointing for one still in flight), so the retry is idempotent. A Call
// that exhausts its retries bumps gave_up() and returns false — the caller
// knows the command's fate is unknown rather than silently hanging.
class Client {
 public:
  struct Options {
    int max_retries = 0;  // reconnect-and-resubmit attempts after a failure
    common::Duration retry_backoff = 100 * common::kMillisecond;
  };

  Client(const std::string& host, uint16_t port);
  Client(const std::string& host, uint16_t port, Options opts);
  ~Client();

  bool Connect();
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  // Sends cmd and blocks until the reply arrives, reconnecting/resubmitting up
  // to max_retries times. Returns false on connection error or retry exhaustion.
  bool Call(const smr::Command& cmd, std::string* result_out);

  // Calls that exhausted every retry (their outcome is unknown).
  uint64_t gave_up() const { return gave_up_; }

  // Pipelined path: enqueue one request without waiting for its reply.
  bool Send(const smr::Command& cmd);
  // Blocks until the next ClientReply frame arrives. Replies to one connection
  // can arrive out of submission order (commands on different shards complete
  // independently), so the reply's seq is reported for correlation.
  bool RecvReply(uint64_t* seq_out, std::string* result_out);

 private:
  std::string host_;
  uint16_t port_;
  Options opts_;
  int fd_ = -1;
  uint64_t gave_up_ = 0;
  // Bytes read but not yet returned as replies: in_[in_off_, end). Parsing
  // advances the offset; the buffer is compacted once per read, not per reply.
  std::vector<uint8_t> in_;
  size_t in_off_ = 0;
  codec::Writer frame_;      // outbound frame, reused: a warm Send allocates nothing
};

}  // namespace rt

#endif  // SRC_RT_NODE_H_
