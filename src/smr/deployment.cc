#include "src/smr/deployment.h"

#include <utility>

#include "src/core/atlas.h"
#include "src/epaxos/epaxos.h"
#include "src/kvs/kvs.h"
#include "src/mencius/mencius.h"
#include "src/paxos/multipaxos.h"

namespace smr {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kAtlas:
      return "Atlas";
    case Protocol::kEPaxos:
      return "EPaxos";
    case Protocol::kFPaxos:
      return "FPaxos";
    case Protocol::kPaxos:
      return "Paxos";
    case Protocol::kMencius:
      return "Mencius";
  }
  return "?";
}

namespace {

// The one place in the tree where protocol engines are constructed for a replica.
// Every partition of a node gets an identical configuration.
std::unique_ptr<Engine> MakeProtocolEngine(const DeploymentOptions& o) {
  switch (o.protocol) {
    case Protocol::kAtlas: {
      atlas::Config cfg;
      cfg.n = o.n;
      cfg.f = o.f;
      cfg.nfr = o.nfr;
      cfg.prune_slow_path = o.prune_slow_path;
      cfg.index_mode = o.index_mode;
      cfg.by_proximity = o.by_proximity;
      cfg.commit_timeout = o.commit_timeout;
      if (o.recovery_scan_interval > 0) {
        cfg.recovery_scan_interval = o.recovery_scan_interval;
      }
      if (o.recovery_retry_interval > 0) {
        cfg.recovery_retry_interval = o.recovery_retry_interval;
      }
      return std::make_unique<atlas::AtlasEngine>(cfg);
    }
    case Protocol::kEPaxos: {
      epaxos::Config cfg;
      cfg.n = o.n;
      cfg.nfr = o.nfr;
      cfg.index_mode = o.index_mode;
      cfg.by_proximity = o.by_proximity;
      cfg.commit_timeout = o.commit_timeout;
      if (o.recovery_scan_interval > 0) {
        cfg.recovery_scan_interval = o.recovery_scan_interval;
      }
      if (o.recovery_retry_interval > 0) {
        cfg.recovery_retry_interval = o.recovery_retry_interval;
      }
      return std::make_unique<epaxos::EPaxosEngine>(cfg);
    }
    case Protocol::kFPaxos:
    case Protocol::kPaxos: {
      paxos::Config cfg;
      cfg.n = o.n;
      cfg.f = o.f;
      cfg.mode = o.protocol == Protocol::kFPaxos ? paxos::QuorumMode::kFlexible
                                                 : paxos::QuorumMode::kClassic;
      cfg.initial_leader = o.leader != common::kInvalidProcess ? o.leader : 0;
      cfg.by_proximity = o.by_proximity;
      return std::make_unique<paxos::PaxosEngine>(cfg);
    }
    case Protocol::kMencius: {
      mencius::Config cfg;
      cfg.n = o.n;
      cfg.commit_timeout = o.commit_timeout;
      if (o.revoke_retry_interval > 0) {
        cfg.revoke_retry_interval = o.revoke_retry_interval;
      }
      return std::make_unique<mencius::MenciusEngine>(cfg);
    }
  }
  return nullptr;
}

}  // namespace

Deployment::Deployment(DeploymentOptions opts)
    : opts_(std::move(opts)), partitioner_(opts_.partitions) {
  CHECK_GE(opts_.partitions, 1u);
  CHECK_LE(opts_.partitions, ShardedEngine::kMaxPartitions);
  if (opts_.partitions == 1) {
    // Classic single-engine replica: exactly the seeded deployment, no wrapper in
    // the message path (the determinism pins rely on this).
    engine_ = MakeProtocolEngine(opts_);
  } else {
    ShardedOptions so;
    so.partitions = opts_.partitions;
    so.batch_window = opts_.batch_window;
    so.batch_max = opts_.batch_max;
    auto sharded = std::make_unique<ShardedEngine>(
        so, [this](uint32_t) { return MakeProtocolEngine(opts_); });
    sharded_ = sharded.get();
    engine_ = std::move(sharded);
  }
  CHECK(engine_ != nullptr);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    if (opts_.executor_threads > 0) {
      // Parallel execution pipeline: lane-partitioned store per shard, with
      // each lane an instance of the configured backend (kvs::KvStore by
      // default) routed via StateMachine::LaneHint.
      auto laned = std::make_unique<exec::LanedStore>(
          static_cast<uint32_t>(opts_.executor_threads),
          opts_.state_machine_factory);
      laned_.push_back(laned.get());
      stores_.push_back(std::move(laned));
    } else {
      stores_.push_back(opts_.state_machine_factory != nullptr
                            ? opts_.state_machine_factory()
                            : std::make_unique<kvs::KvStore>());
    }
    CHECK(stores_.back() != nullptr);
  }
  applied_counts_ = std::make_unique<AppliedCount[]>(opts_.partitions);

  if (!opts_.data_dir.empty()) {
    // Open per-shard persistence and recover whatever is on disk: snapshot
    // restore + log-tail replay re-derive the store state and applied counts
    // this incarnation starts from. The catch-up advert (frontiers + floors)
    // is captured here, before any live traffic, so the I/O thread can read
    // it race-free while shard workers run.
    catchup_advert_.shards.resize(opts_.partitions);
    for (uint32_t s = 0; s < opts_.partitions; s++) {
      dur::ShardDurability::Options dopts;
      dopts.log.fsync_mode = opts_.fsync_mode;
      dopts.snapshot_every = opts_.snapshot_every;
      auto d = std::make_unique<dur::ShardDurability>(
          opts_.data_dir + "/shard-" + std::to_string(s), dopts);
      CHECK(d->Open());
      if (d->had_state()) {
        recovered_ = true;
        uint64_t applied = d->Recover(*stores_[s]);
        applied_counts_[s].n.store(applied, std::memory_order_relaxed);
      }
      codec::Writer w;
      d->frontier().EncodeTo(w);
      catchup_advert_.shards[s].seq_floor = d->persisted_seq_floor();
      catchup_advert_.shards[s].frontier.assign(
          reinterpret_cast<const char*>(w.buffer().data()), w.buffer().size());
      durability_.push_back(std::move(d));
    }
  }
}

Deployment::~Deployment() = default;

EngineStats Deployment::shard_stats(uint32_t shard) const {
  CHECK_LT(shard, opts_.partitions);
  return sharded_ != nullptr ? sharded_->shard_stats(shard) : engine_->stats();
}

Engine& Deployment::shard_engine(uint32_t shard) {
  CHECK_LT(shard, opts_.partitions);
  return sharded_ != nullptr ? sharded_->shard(shard) : *engine_;
}

const Engine& Deployment::shard_engine(uint32_t shard) const {
  CHECK_LT(shard, opts_.partitions);
  return sharded_ != nullptr ? sharded_->shard(shard) : *engine_;
}

void Deployment::FlushAll() {
  if (sharded_ != nullptr) {
    sharded_->FlushAll();
  }
}

std::vector<RestartHint> Deployment::RestartHints() const {
  std::vector<RestartHint> hints;
  hints.reserve(opts_.partitions);
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    hints.push_back(shard_engine(s).restart_hint());
  }
  return hints;
}

void Deployment::ApplyRestartHints(const std::vector<RestartHint>& hints) {
  CHECK_EQ(hints.size(), static_cast<size_t>(opts_.partitions));
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shard_engine(s).ApplyRestartHint(hints[s]);
  }
}

void Deployment::NotifyRestore(common::ProcessId p,
                               const std::vector<RestartHint>& hints) {
  CHECK_EQ(hints.size(), static_cast<size_t>(opts_.partitions));
  for (uint32_t s = 0; s < opts_.partitions; s++) {
    shard_engine(s).OnRestore(p, hints[s].seq_floor);
  }
}

std::vector<RestartHint> Deployment::RecoveredRestartHints() const {
  std::vector<RestartHint> hints(opts_.partitions);
  for (uint32_t s = 0; s < opts_.partitions && s < durability_.size(); s++) {
    hints[s].seq_floor = durability_[s]->persisted_seq_floor();
    // The recovered store reflects everything executed below this frontier
    // (snapshot restore + log-tail replay), so the engine may resume there;
    // slots between it and the crash frontier are re-learned from peers and
    // deduplicated by the durable admit filter.
    hints[s].exec_floor = durability_[s]->persisted_exec_floor();
  }
  return hints;
}

bool Deployment::AdmitDurable(uint32_t shard, const common::Dot& dot,
                              const Command& cmd) {
  if (durability_.empty() || !dot.valid()) {
    return true;
  }
  if (!durability_[shard]->Admit(dot, cmd)) {
    return false;
  }
  // Keep the reserved sequence floor ahead of the live engine's counter so a
  // restart never re-mints a dot some peer already executed.
  durability_[shard]->NoteSeqFloor(shard_engine(shard).restart_hint().seq_floor);
  return true;
}

}  // namespace smr
