#include "src/exec/laned_store.h"

#include "src/common/check.h"
#include "src/kvs/kvs.h"

namespace exec {

LanedStore::LanedStore(
    uint32_t lanes,
    const std::function<std::unique_ptr<smr::StateMachine>()>& factory)
    : lanes_(lanes) {
  CHECK_GE(lanes_, 1u);
  stores_.reserve(lanes_);
  for (uint32_t l = 0; l < lanes_; l++) {
    stores_.push_back(factory != nullptr ? factory()
                                         : std::make_unique<kvs::KvStore>());
    CHECK(stores_.back() != nullptr);
  }
}

bool LanedStore::SingleLane(const smr::Command& cmd, uint32_t* lane) const {
  // Lane 0 is the routing prototype: every lane is the same concrete backend,
  // and LaneHint only consults command structure plus the router.
  uint32_t hint = stores_[0]->LaneHint(cmd, *this);
  if (hint == smr::kCrossLane) {
    return false;
  }
  *lane = hint;
  return true;
}

std::string LanedStore::ApplyCrossLane(const smr::Command& cmd) {
  return stores_[0]->ApplyAcross(cmd, *this);
}

std::string LanedStore::Apply(const smr::Command& cmd) {
  if (cmd.is_noop()) {
    return "";
  }
  if (cmd.is_batch()) {
    // Composite submission batch, same semantics as the flat backends'
    // Apply(kBatch): sub-commands apply in encoded order (sequential here —
    // the inline path).
    size_t n = smr::UnpackBatch(cmd, batch_scratch_);
    for (size_t i = 0; i < n; i++) {
      Apply(batch_scratch_[i]);
    }
    return "";
  }
  uint32_t lane = 0;
  if (SingleLane(cmd, &lane)) {
    return ApplyOnLane(lane, cmd);
  }
  return ApplyCrossLane(cmd);
}

uint64_t LanedStore::StateDigest() const {
  uint64_t digest = 0;
  for (const auto& s : stores_) {
    digest ^= s->StateDigest();
  }
  return digest;
}

void LanedStore::SnapshotTo(codec::Writer& w) const {
  w.Varint(lanes_);
  for (const auto& s : stores_) {
    s->SnapshotTo(w);
  }
}

bool LanedStore::RestoreFrom(codec::Reader& r) {
  uint64_t lanes = r.Varint();
  if (!r.ok() || lanes != lanes_) {
    // A snapshot taken at a different lane count would scatter keys onto the
    // wrong lanes; recovery must be configured with the lane count that wrote
    // the snapshot (DeploymentOptions::executor_threads).
    return false;
  }
  for (const auto& s : stores_) {
    if (!s->RestoreFrom(r)) {
      return false;
    }
  }
  return true;
}

}  // namespace exec
