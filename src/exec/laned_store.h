// Lane-partitioned service replica: the state side of the parallel execution
// pipeline (ordering/execution split).
//
// The graph executor decides a deterministic total order per shard; the commands
// it emits mostly commute at the *store* level too — a kPut("a") and a kPut("b")
// can apply concurrently without changing any observable state. LanedStore makes
// that concurrency safe to exploit: the shard's key space is partitioned into E
// commute lanes by a stable hash of the key bytes, each lane owning an
// independent backend built by the deployment's state_machine_factory
// (kvs::KvStore by default). Commands whose keys all land in one lane apply on
// that lane alone; executor workers (src/exec/exec_pool.h) pin one thread per
// lane, so two single-lane commands on different lanes run in parallel while
// same-key (hence same-lane) commands stay serialized in emission order.
//
// Which commands are single-lane and how cross-lane commands decompose is the
// *backend's* call, made through the smr::StateMachine LaneHint/ApplyAcross
// seam — LanedStore is pure routing plus the smr::LanePartition view the
// backend decomposes against. Backends must keep StateDigest XOR-decomposable
// (digest of the whole == XOR of lane digests) for the parity gates to hold.
//
// Exactness, not approximation: the XOR of the lane digests equals the digest
// of the flat store bit for bit, at every lane count. The single-threaded
// Apply() path routes through the same lanes, which is the deterministic
// fallback the simulator uses: same routing, same per-key order, same
// digests, no threads.
//
// Lane routing deliberately re-mixes the shard hash: shards are assigned by
// HashKey(key) % P, so using the raw hash modulo E again would correlate lanes
// with shards (at E == P every key of shard s would land in lane s % E and one
// lane would absorb the whole shard). A splitmix64 finalizer decorrelates the
// two partitions.
#ifndef SRC_EXEC_LANED_STORE_H_
#define SRC_EXEC_LANED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/smr/command.h"
#include "src/smr/partitioner.h"
#include "src/smr/state_machine.h"

namespace exec {

class LanedStore final : public smr::StateMachine, public smr::LanePartition {
 public:
  // Builds `lanes` backends from `factory` (nullptr: kvs::KvStore, the
  // historical hard-wiring, now just the default).
  explicit LanedStore(
      uint32_t lanes,
      const std::function<std::unique_ptr<smr::StateMachine>()>& factory =
          nullptr);

  // smr::LanePartition:
  uint32_t lanes() const override { return lanes_; }
  // Stable lane of a key: splitmix64-finalized Partitioner::HashKey, mod E.
  uint32_t LaneOfKey(std::string_view key) const override {
    uint64_t h = smr::Partitioner::HashKey(key);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<uint32_t>(h % lanes_);
  }
  smr::StateMachine& lane(uint32_t lane) override { return *stores_[lane]; }

  // True (with *lane set) iff the backend pins every key of cmd to one lane
  // (smr::StateMachine::LaneHint). Callers handle noOps and kBatch composites
  // before routing (neither names a key).
  bool SingleLane(const smr::Command& cmd, uint32_t* lane) const;

  // Applies a command all of whose keys live in `lane`. Thread-safe across
  // *different* lanes (each lane's store is touched by one executor thread);
  // the caller guarantees per-lane serialization.
  std::string ApplyOnLane(uint32_t lane, const smr::Command& cmd) {
    return stores_[lane]->Apply(cmd);
  }

  // Applies a command whose keys span lanes, decomposed by the backend
  // (smr::StateMachine::ApplyAcross). Caller must have quiesced every lane (no
  // executor worker mid-apply): this runs on the dispatching thread as a
  // barrier operation. Result matches the flat backend's Apply exactly.
  std::string ApplyCrossLane(const smr::Command& cmd);

  // smr::StateMachine — the inline single-threaded path (the simulator):
  // same lane routing, applied sequentially.
  std::string Apply(const smr::Command& cmd) override;
  // XOR of the lane digests == flat-store digest (see header comment).
  uint64_t StateDigest() const override;
  // Lane count followed by each lane's blob in lane order. Restore requires
  // the same lane count (lane routing determines which blob holds which key).
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override;

  const std::string* LookupKey(const std::string& key) const override {
    return stores_[LaneOfKey(key)]->LookupKey(key);
  }
  const std::string* Lookup(const std::string& key) const {
    return LookupKey(key);
  }
  smr::StateMachine& lane_store(uint32_t lane) { return *stores_[lane]; }

 private:
  uint32_t lanes_;
  std::vector<std::unique_ptr<smr::StateMachine>> stores_;
  // kBatch sub-commands, decoded in place and reused across batches.
  std::vector<smr::Command> batch_scratch_;
};

}  // namespace exec

#endif  // SRC_EXEC_LANED_STORE_H_
