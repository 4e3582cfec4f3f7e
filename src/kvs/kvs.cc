#include "src/kvs/kvs.h"

namespace kvs {

std::string KvStore::Apply(const smr::Command& cmd) {
  switch (cmd.op) {
    case smr::Op::kNoOp:
      return "";
    case smr::Op::kGet: {
      auto it = map_.find(cmd.key);
      return it == map_.end() ? "" : it->second;
    }
    case smr::Op::kPut:
      map_[cmd.key].assign(cmd.value.data(), cmd.value.size());
      return "";
    case smr::Op::kRmw: {
      std::string& v = map_[cmd.key];
      std::string prev = v;
      v.append(cmd.value.data(), cmd.value.size());
      return prev;
    }
    case smr::Op::kScan: {
      std::string out;
      auto it = map_.find(cmd.key);
      if (it != map_.end()) {
        out += it->second;
      }
      for (const auto& k : cmd.more_keys) {
        auto jt = map_.find(k);
        if (jt != map_.end()) {
          out += jt->second;
        }
      }
      return out;
    }
    case smr::Op::kMPut: {
      map_[cmd.key].assign(cmd.value.data(), cmd.value.size());
      for (const auto& k : cmd.more_keys) {
        map_[k].assign(cmd.value.data(), cmd.value.size());
      }
      return "";
    }
    case smr::Op::kBatch: {
      // Composite submission batch: apply the sub-commands in encoded order.
      // (The cluster harness unpacks batches itself for per-client completion; this
      // path serves direct StateMachine users like the real runtime.)
      size_t n = smr::UnpackBatch(cmd, batch_scratch_);
      for (size_t i = 0; i < n; i++) {
        Apply(batch_scratch_[i]);
      }
      return "";
    }
    case smr::Op::kRange:
      // Ordered iteration is undefined on a hash map; the ordered backend
      // (kvs::OrderedKvs) implements ranges.
      return "";
  }
  return "";
}

uint64_t KvStore::StateDigest() const {
  // Order-independent digest: XOR of per-entry hashes, so iteration order of the
  // unordered_map does not matter.
  uint64_t digest = 0;
  std::hash<std::string> h;
  for (const auto& [k, v] : map_) {
    uint64_t e = h(k) * 0x9e3779b97f4a7c15ull ^ h(v);
    e ^= e >> 29;
    e *= 0xbf58476d1ce4e5b9ull;
    digest ^= e;
  }
  return digest;
}

const std::string* KvStore::Lookup(const std::string& key) const {
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : &it->second;
}

void KvStore::SnapshotTo(codec::Writer& w) const {
  // Entry count then (key, value) pairs; iteration order does not matter for
  // the digest (XOR) or the restored map, so no sort is needed. The format is
  // self-delimiting: RestoreFrom consumes exactly count pairs.
  w.Varint(map_.size());
  for (const auto& [k, v] : map_) {
    w.Bytes(k);
    w.Bytes(v);
  }
}

bool KvStore::RestoreFrom(codec::Reader& r) {
  map_.clear();
  uint64_t n = r.Varint();
  if (!r.ok() || n > r.remaining()) {
    return false;
  }
  for (uint64_t i = 0; i < n; i++) {
    std::string k = r.Bytes();
    std::string v = r.Bytes();
    if (!r.ok()) {
      map_.clear();
      return false;
    }
    map_[std::move(k)] = std::move(v);
  }
  return true;
}

}  // namespace kvs
