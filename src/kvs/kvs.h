// Replicated key-value store: the state machine used throughout the paper's evaluation
// (§5.7) and the examples.
#ifndef SRC_KVS_KVS_H_
#define SRC_KVS_KVS_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/smr/command.h"
#include "src/smr/state_machine.h"

namespace kvs {

// In-memory KVS. Supported commands:
//   kGet   -> returns the value stored under key ("" if absent)
//   kPut   -> stores value under key, returns ""
//   kRmw   -> appends value to the current value, returns the previous value
//   kScan  -> returns the concatenation of values under key + more_keys
//   kMPut  -> stores value under key and every key in more_keys
//   kRange -> "" (ordered iteration is not defined on a hash map; see OrderedKvs)
//   kNoOp  -> no effect
class KvStore final : public smr::StateMachine {
 public:
  std::string Apply(const smr::Command& cmd) override;
  uint64_t StateDigest() const override;
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override;

  size_t size() const { return map_.size(); }
  const std::string* Lookup(const std::string& key) const;

  // Single-key assignment, bypassing Command construction: the lane-partitioned
  // store (src/exec/laned_store.h) decomposes multi-key writes per key and needs
  // an allocation-free way to land one key's mutation on its lane.
  void Put(const std::string& key, std::string_view value) {
    map_[key].assign(value.data(), value.size());
  }

  // Lane primitives for the default cross-lane decomposition
  // (smr::StateMachine::ApplyAcross).
  const std::string* LookupKey(const std::string& key) const override {
    return Lookup(key);
  }
  void PutKey(const std::string& key, std::string_view value) override {
    Put(key, value);
  }

 private:
  std::unordered_map<std::string, std::string> map_;
  // kBatch sub-commands, decoded in place and reused across batches.
  std::vector<smr::Command> batch_scratch_;
};

}  // namespace kvs

#endif  // SRC_KVS_KVS_H_
