// Outside-in tracing for the loopback-TCP workloads.
//
// The library has no spans of its own yet, so the traced run records them from
// the benchmark's side of two public seams:
//   * the root span of a sampled request runs from the rt::Client::Send call to
//     the reply's receipt (recorded by the workload's client threads);
//   * its child spans come from TracedStore, a smr::StateMachine installed
//     through DeploymentOptions::state_machine_factory that wraps kvs::KvStore
//     and times every Apply and SnapshotTo call.
// A request is sampled when seq % kSampleEvery == 0, a rule every replica
// evaluates identically, so one request's apply spans at all replicas share
// the root's (client, seq) id. Each (replica, shard) store writes only its own
// ShardTrace, from its own shard worker, so tracing never serializes the
// workers; the buffers are read after the nodes are joined.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/kvs/kvs.h"
#include "src/smr/deployment.h"

namespace perfbench {

constexpr uint64_t kSampleEvery = 64;

inline bool Sampled(uint64_t client, uint64_t seq) {
  return client != 0 && seq % kSampleEvery == 0;
}

struct RootSpan {
  uint32_t conn = 0;  // the replica the client is connected to
  uint64_t client = 0;
  uint64_t seq = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
};

struct ApplySpan {
  uint64_t client = 0;
  uint64_t seq = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct ShardTrace {
  uint32_t replica = 0;
  uint32_t shard = 0;
  uint64_t applies = 0;       // non-noop Apply calls
  common::Histogram apply_ns; // every Apply, in nanoseconds
  std::vector<ApplySpan> spans;
  std::vector<ApplySpan> snapshots;  // client = seq = 0
};

class TracedStore final : public smr::StateMachine {
 public:
  explicit TracedStore(ShardTrace* trace) : trace_(trace) {}

  std::string Apply(const smr::Command& cmd) override;
  uint64_t StateDigest() const override { return inner_.StateDigest(); }
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override { return inner_.RestoreFrom(r); }

 private:
  kvs::KvStore inner_;
  ShardTrace* trace_;
};

// Owns every ShardTrace of one cluster. Slots are created while the
// deployments are built (single-threaded) and never move afterwards.
class Tracer {
 public:
  // A factory for replica `replica`'s stores: the n-th call builds shard n's.
  std::function<std::unique_ptr<smr::StateMachine>()> Factory(uint32_t replica);

  const std::deque<ShardTrace>& shards() const { return shards_; }

 private:
  std::deque<ShardTrace> shards_;
};

// Per-layer figures derived from the spans of one traced run.
struct SpanSummary {
  double order_ms_p50 = 0, order_ms_p99 = 0;  // send -> apply start at conn
  double reply_ms_p50 = 0, reply_ms_p99 = 0;  // apply end at conn -> receipt
  double lag_ms_p50 = 0, lag_ms_p99 = 0;      // first -> last replica apply
  double apply_us_mean = 0, apply_us_p99 = 0;
  uint64_t applies = 0;
  uint64_t snapshots = 0;
  double snapshot_ms_p99 = 0;
  uint64_t spans = 0;
};

SpanSummary Summarize(const Tracer& tracer, const std::vector<RootSpan>& roots,
                      uint32_t replicas);

// Writes every span as one JSON object per line.
bool WriteSpans(const std::string& path, const Tracer& tracer,
                const std::vector<RootSpan>& roots);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
