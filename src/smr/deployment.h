// Replica assembly: one node's full protocol deployment, shared by every driver.
//
// The paper's methodology is one codebase where protocols differ only in the commit
// component. The sans-I/O engines honor that, but until this layer existed the
// *assembly* of a replica — which protocol engine to build, whether to shard it,
// how to wire per-shard stores, stats and submission batching — was duplicated
// between the simulator harness and the TCP runtime (and the TCP runtime only knew
// how to run a single bare engine). Deployment is the single construction site:
//
//   * P == 1: a bare protocol engine, byte-identical to the seeded single-engine
//     replica (no wrapper in the message path, no batching — the determinism pins
//     rely on this);
//   * P > 1: a smr::ShardedEngine multiplexing P per-partition engines, each with
//     its own dot space/conflict index/executor, plus per-shard service replicas
//     (kvs::KvStore by default), per-shard applied counts and submission batching.
//
// The simulator harness and the TCP runtime talk to the assembled replica
// exclusively through the smr::Engine/Context interfaces — the harness through
// engine(), rt::Node through shard_engine(s) on one worker thread per shard — and
// use the unpack helpers here to demultiplex executed/committed/dropped commands —
// including kBatch composites — back to per-shard stores and per-client completions.
// Compartmentalization (Whittaker et al.) calls this decoupling of replica roles
// from deployment shape the enabler for deployment-side scaling; every future
// deployment feature (membership, reconnection, multi-backend storage) lands here
// once instead of per-driver.
#ifndef SRC_SMR_DEPLOYMENT_H_
#define SRC_SMR_DEPLOYMENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/dur/shard_durability.h"
#include "src/exec/laned_store.h"
#include "src/smr/command.h"
#include "src/smr/conflict_index.h"
#include "src/smr/engine.h"
#include "src/smr/partitioner.h"
#include "src/smr/sharded_engine.h"
#include "src/smr/state_machine.h"

namespace smr {

// The commit component this deployment runs; everything else is shared.
enum class Protocol {
  kAtlas,
  kEPaxos,
  kFPaxos,
  kPaxos,    // classic majority quorums
  kMencius,
};

const char* ProtocolName(Protocol p);

struct DeploymentOptions {
  Protocol protocol = Protocol::kAtlas;
  uint32_t n = 3;
  uint32_t f = 1;
  bool nfr = false;
  bool prune_slow_path = true;
  IndexMode index_mode = IndexMode::kCompressed;

  // Peers of this node ordered by increasing network distance (self excluded);
  // empty lets the engine fall back to id order.
  std::vector<common::ProcessId> by_proximity;

  // FPaxos/Paxos initial leader; kInvalidProcess defaults to process 0 (drivers
  // with a latency model pick the fairest site and pass it in).
  common::ProcessId leader = common::kInvalidProcess;

  // Recovery / fault-tolerance knobs forwarded to the protocol engines that support
  // them (Atlas, EPaxos, Mencius). 0 keeps each engine's own default — for
  // commit_timeout that means disabled, matching failure-free deployments.
  common::Duration commit_timeout = 0;
  common::Duration recovery_scan_interval = 0;
  common::Duration recovery_retry_interval = 0;
  common::Duration revoke_retry_interval = 0;  // Mencius revocation pacing

  // Partitioned replica: `partitions` independent engines behind a ShardedEngine,
  // with per-(node, partition) stores. 1 builds the classic bare-engine replica.
  uint32_t partitions = 1;
  // Submission batching on sharded replicas (ignored at partitions == 1, which
  // must stay identical to the unbatched seed).
  common::Duration batch_window = 0;
  size_t batch_max = 64;

  // Builds the per-shard service replica; nullptr defaults to kvs::KvStore.
  std::function<std::unique_ptr<StateMachine>()> state_machine_factory;

  // Ignored: rt::Node always runs each shard's engine on its own worker
  // thread (src/rt/shard_runtime.h). Kept only until perfbench/lan_cluster.cc,
  // which still sets it, stops doing so.
  bool threaded = false;

  // Parallel execution pipeline (ordering/execution split): with
  // executor_threads > 0 each shard's store becomes an exec::LanedStore with
  // that many commute lanes, and the TCP runtime applies non-conflicting
  // commands concurrently on a per-shard executor pool (src/exec/exec_pool.h).
  // The simulator honors the laned store but applies inline through it — a
  // deterministic fallback with byte-identical state and digests at every
  // thread count. 0 keeps plain per-shard stores and inline execution
  // (byte-identical to the seed; the determinism pins rely on this). Composes
  // with state_machine_factory: the laned store builds one backend instance
  // per lane through the factory and routes via StateMachine::LaneHint.
  size_t executor_threads = 0;

  // Persistence (src/dur): non-empty enables the per-shard commit log +
  // snapshot subsystem under <data_dir>/shard-N/. The Deployment constructor
  // recovers from whatever it finds there (snapshot restore + log-tail
  // replay), so restart-from-disk is just "construct with the same data_dir".
  // Empty (the default) keeps the deployment fully in-memory and
  // byte-identical to the seed — the determinism/alloc pins rely on this.
  std::string data_dir;
  // Appends between automatic per-shard snapshots (0: only explicit ones).
  uint64_t snapshot_every = 4096;
  dur::FsyncMode fsync_mode = dur::FsyncMode::kBatch;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions opts);
  ~Deployment();

  // The replica's engine: bare at P=1, the ShardedEngine wrapper at P>1. Drivers
  // Bind/OnStart/Submit/OnMessage/OnTimer through this single object; sharded
  // deployments keep the shard tag on messages and timer tokens end-to-end.
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  uint32_t partitions() const { return opts_.partitions; }
  Protocol protocol() const { return opts_.protocol; }
  const Partitioner& partitioner() const { return partitioner_; }
  const DeploymentOptions& options() const { return opts_; }

  // Partition of an executed/dropped command's key (0 for noOps, which apply
  // nowhere and are skipped by checkers anyway).
  uint32_t ShardOfCmd(const Command& cmd) const {
    return cmd.is_noop() ? 0 : partitioner_.ShardOf(cmd.key);
  }

  // Per-shard service replica and its applied-command count (non-noop commands,
  // the per-shard executed_count used for digest comparability between replicas).
  // The counts are atomics because executor-pool lanes bump them from their own
  // threads (single-threaded drivers pay one relaxed add, nothing observable).
  StateMachine& store(uint32_t shard = 0) { return *stores_[shard]; }
  const StateMachine& store(uint32_t shard = 0) const { return *stores_[shard]; }
  uint64_t applied_count(uint32_t shard = 0) const {
    return applied_counts_[shard].n.load(std::memory_order_acquire);
  }

  // The shard's store as a lane-partitioned store, or nullptr when
  // executor_threads == 0 (plain store, inline execution). The TCP
  // runtime hands this to the shard's exec::ExecPool.
  exec::LanedStore* laned_store(uint32_t shard) const {
    return laned_.empty() ? nullptr : laned_[shard];
  }

  // Post-apply accounting for executor pools, callable from lane threads:
  // the inline ApplyExecuted path below counts through the same atomics.
  void CountApplied(uint32_t shard, const Command& cmd) {
    if (!cmd.is_noop()) {
      applied_counts_[shard].n.fetch_add(1, std::memory_order_release);
    }
  }

  // Engine stats: aggregate over the replica, and per partition. shard_engine
  // exposes the inner engine for protocol-specific introspection (downcasts in
  // benches/tests); at P=1 shard 0 is the bare engine itself.
  EngineStats stats() const { return engine_->stats(); }
  EngineStats shard_stats(uint32_t shard) const;
  Engine& shard_engine(uint32_t shard);
  const Engine& shard_engine(uint32_t shard) const;

  // Flushes pending submission batches (tests / drain); no-op on bare replicas.
  void FlushAll();

  // Restart plumbing (crash/recovery drivers). RestartHints reads the per-shard
  // stable-storage floors off a dying replica; ApplyRestartHints seeds them into the
  // freshly built replacement (after Bind + OnStart); NotifyRestore tells a live
  // replica that peer `p` restarted with the given per-shard floors.
  std::vector<RestartHint> RestartHints() const;
  void ApplyRestartHints(const std::vector<RestartHint>& hints);
  void NotifyRestore(common::ProcessId p, const std::vector<RestartHint>& hints);

  // ---- Durability (only meaningful with a non-empty data_dir) ----

  bool durable() const { return !durability_.empty(); }

  // True when the constructor found and recovered prior on-disk state; the
  // driver must then ApplyRestartHints(RecoveredRestartHints()) after
  // Bind + OnStart, and should announce itself to peers for catch-up.
  bool HasRecoveredState() const { return recovered_; }
  std::vector<RestartHint> RecoveredRestartHints() const;

  // What a restarted replica advertises to peers: per-shard executed-dot
  // frontiers (encoded) plus reserved sequence floors, captured immutably at
  // construction so any thread may read it without touching live shard state.
  struct CatchupAdvert {
    struct Shard {
      uint64_t seq_floor = 0;
      std::string frontier;  // dur::DotFrontier encoding
    };
    std::vector<Shard> shards;
  };
  const CatchupAdvert& catchup_advert() const { return catchup_advert_; }

  // Duplicate filter + commit-log append for an executed engine-level command.
  // True => first execution, caller applies it; false => the dot was already
  // executed (restart replay / catch-up re-delivery), skip the apply. Always
  // true when durability is off or the dot is invalid (timer-less drivers).
  // Also refreshes the shard's reserved sequence floor off the live engine.
  bool AdmitDurable(uint32_t shard, const common::Dot& dot, const Command& cmd);

  // Snapshot policy for drivers that must quiesce concurrent appliers first
  // (the executor-pool worker calls WaitIdle, then WriteShardSnapshot). The
  // inline apply paths below snapshot automatically.
  bool SnapshotDue(uint32_t shard) const {
    return durable() && durability_[shard]->SnapshotDue();
  }
  void WriteShardSnapshot(uint32_t shard) {
    if (durable()) {
      // restart_hint() is read from the shard's own apply path (the same
      // thread that runs the engine), like the AdmitDurable floor refresh.
      durability_[shard]->WriteSnapshot(*stores_[shard],
                                       shard_engine(shard).restart_hint().exec_floor);
    }
  }

  // The shard's durability facade (catch-up streaming), or nullptr.
  dur::ShardDurability* durability(uint32_t shard) const {
    return durability_.empty() ? nullptr : durability_[shard].get();
  }

  // Applies one command executed by shard `shard`'s engine — unpacking kBatch
  // composites into the caller-owned `scratch` and applying the sub-commands in
  // encoded order — to that shard's store, bumping its applied count, then
  // invokes fn(shard, sub_command, result) per client command (noOps included;
  // they apply as no-ops and carry client 0). Every sub-command of a batch
  // belongs to the batch's shard: the submission path routed it there. A
  // caller running the top-level engine() passes ShardOfCmd(cmd); a shard
  // worker passes its own shard, so one worker per shard may apply
  // concurrently (applied_counts_[shard] is then written by that worker
  // alone; readers synchronize via worker join or use the runtime's atomic
  // counters). The scratch is reused across calls (allocation-free for warm
  // capacities). `dot` is the executed command's identifier, used for durable
  // logging/dedup; pass an invalid dot (default Dot{}) when durability is off.
  template <class Fn>
  void ApplyExecuted(uint32_t shard, const common::Dot& dot, const Command& cmd,
                     std::vector<Command>& scratch, Fn&& fn) {
    if (!AdmitDurable(shard, dot, cmd)) {
      return;
    }
    if (cmd.is_batch()) {
      size_t n = UnpackBatch(cmd, scratch);
      CHECK_GT(n, 0u);
      for (size_t i = 0; i < n; i++) {
        ApplyOne(shard, scratch[i], fn);
      }
    } else {
      ApplyOne(shard, cmd, fn);
    }
    MaybeSnapshotInline(shard);
  }

  // Invokes fn(sub_command) for every client command a committed engine-level
  // command carries. Its own scratch, not a caller's ApplyExecuted scratch: the
  // Committed hook fires mid-ApplyCommit and the execute path may unpack later
  // in the same call chain.
  template <class Fn>
  void ForEachCommitted(const Command& cmd, Fn&& fn) {
    if (cmd.is_batch()) {
      size_t n = UnpackBatch(cmd, commit_scratch_);
      CHECK_GT(n, 0u);
      for (size_t i = 0; i < n; i++) {
        const Command& sub = commit_scratch_[i];
        fn(sub);
      }
      return;
    }
    fn(cmd);
  }

  // Invokes fn(sub_command) for every client command a dropped engine-level
  // command carried, unpacking into the caller-owned `scratch`. Give it a
  // buffer of its own: drop handlers may resubmit, and a handler that reenters
  // Submit -> batch -> unpack -> drop must not unpack into the buffer this
  // call is still iterating.
  template <class Fn>
  void ForEachDropped(const Command& orig, std::vector<Command>& scratch, Fn&& fn) {
    if (orig.is_batch()) {
      size_t n = UnpackBatch(orig, scratch);
      CHECK_GT(n, 0u);
      for (size_t i = 0; i < n; i++) {
        const Command& sub = scratch[i];
        fn(sub);
      }
      return;
    }
    fn(orig);
  }

 private:
  // Inline-apply snapshot trigger: the caller just applied through the store
  // on this thread, so no quiesce is needed.
  void MaybeSnapshotInline(uint32_t shard) {
    if (durable() && durability_[shard]->SnapshotDue()) {
      durability_[shard]->WriteSnapshot(*stores_[shard],
                                       shard_engine(shard).restart_hint().exec_floor);
    }
  }

  template <class Fn>
  void ApplyOne(uint32_t shard, const Command& cmd, Fn&& fn) {
    std::string result = stores_[shard]->Apply(cmd);
    CountApplied(shard, cmd);
    fn(shard, cmd, std::move(result));
  }

  DeploymentOptions opts_;
  Partitioner partitioner_;
  std::unique_ptr<Engine> engine_;
  ShardedEngine* sharded_ = nullptr;  // engine_ downcast when partitions > 1
  std::vector<std::unique_ptr<StateMachine>> stores_;
  // stores_ downcasts when executor_threads > 0 (empty otherwise).
  std::vector<exec::LanedStore*> laned_;
  // One cache line per shard: each shard's worker bumps its own count per
  // sub-command without writing a line another shard's worker writes.
  struct alignas(64) AppliedCount {
    std::atomic<uint64_t> n{0};
  };
  std::unique_ptr<AppliedCount[]> applied_counts_;
  std::vector<Command> commit_scratch_;  // kBatch unpack reuse (commit path)
  // Per-shard persistence (empty when data_dir is empty).
  std::vector<std::unique_ptr<dur::ShardDurability>> durability_;
  bool recovered_ = false;
  CatchupAdvert catchup_advert_;
};

}  // namespace smr

#endif  // SRC_SMR_DEPLOYMENT_H_
