// Ordered-map backend: the second state machine behind the redesigned
// smr::StateMachine seam, proving the deployment composes with backends other
// than the hash-map KvStore (including under the lane-partitioned executor —
// register it via DeploymentOptions::state_machine_factory).
//
// Same command set as KvStore plus kRange: an ordered scan over [key,
// more_keys[0]) returning the concatenation of values in key order. Under lane
// partitioning a range's footprint is an interval that crosses lanes by
// construction (lanes hash keys), so OrderedKvs overrides ApplyAcross to merge
// the in-range entries of every lane in global key order — bit-identical to
// the flat ordered store at any lane count.
#ifndef SRC_KVS_ORDERED_KVS_H_
#define SRC_KVS_ORDERED_KVS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/smr/command.h"
#include "src/smr/state_machine.h"

namespace kvs {

class OrderedKvs final : public smr::StateMachine {
 public:
  std::string Apply(const smr::Command& cmd) override;
  // Same per-entry hash fold as KvStore: order-independent and
  // partition-decomposable, so laned digests XOR to the flat digest and the
  // two backends are digest-comparable over range-free histories.
  uint64_t StateDigest() const override;
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override;

  // Range merge across lanes (see header comment); other ops use the default
  // decomposition through LookupKey/PutKey.
  std::string ApplyAcross(const smr::Command& cmd,
                          smr::LanePartition& lanes) override;

  const std::string* LookupKey(const std::string& key) const override;
  void PutKey(const std::string& key, std::string_view value) override {
    map_[key].assign(value.data(), value.size());
  }

  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  // Appends this store's entries in [begin, end) to out, in key order.
  void AppendRange(const std::string& begin, const std::string& end,
                   std::string& out) const;

  std::map<std::string, std::string> map_;
  // kBatch sub-commands, decoded in place and reused across batches.
  std::vector<smr::Command> batch_scratch_;
};

}  // namespace kvs

#endif  // SRC_KVS_ORDERED_KVS_H_
