#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "perfbench/util.h"

namespace perfbench {

std::string TracedStore::Apply(const smr::Command& cmd) {
  int64_t start = NowNs();
  std::string result = inner_.Apply(cmd);
  int64_t end = NowNs();
  trace_->apply_ns.Record(end - start);
  if (!cmd.is_noop()) {
    trace_->applies++;
  }
  if (Sampled(cmd.client, cmd.seq)) {
    trace_->spans.push_back(ApplySpan{cmd.client, cmd.seq, start, end});
  }
  return result;
}

void TracedStore::SnapshotTo(codec::Writer& w) const {
  int64_t start = NowNs();
  inner_.SnapshotTo(w);
  trace_->snapshots.push_back(ApplySpan{0, 0, start, NowNs()});
}

std::function<std::unique_ptr<smr::StateMachine>()> Tracer::Factory(
    uint32_t replica) {
  return [this, replica, shard = uint32_t{0}]() mutable {
    ShardTrace& t = shards_.emplace_back();
    t.replica = replica;
    t.shard = shard++;
    t.spans.reserve(1 << 14);
    return std::make_unique<TracedStore>(&t);
  };
}

SpanSummary Summarize(const Tracer& tracer, const std::vector<RootSpan>& roots,
                      uint32_t replicas) {
  SpanSummary s;
  // (client, seq) -> apply span per replica.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<const ApplySpan*>> by_op;
  common::Histogram apply_ns;
  std::vector<double> snapshot_ms;
  for (const ShardTrace& t : tracer.shards()) {
    s.applies += t.applies;
    apply_ns.Merge(t.apply_ns);
    for (const ApplySpan& a : t.spans) {
      auto& v = by_op[{a.client, a.seq}];
      v.resize(replicas, nullptr);
      v[t.replica] = &a;
    }
    for (const ApplySpan& snap : t.snapshots) {
      snapshot_ms.push_back(static_cast<double>(snap.end_ns - snap.start_ns) / 1e6);
    }
    s.spans += t.spans.size() + t.snapshots.size();
  }
  s.spans += roots.size();
  std::vector<double> order, reply, lag;
  for (const RootSpan& r : roots) {
    auto it = by_op.find({r.client, r.seq});
    if (it == by_op.end() || it->second[r.conn] == nullptr) {
      continue;
    }
    const ApplySpan* at_conn = it->second[r.conn];
    order.push_back(static_cast<double>(at_conn->start_ns - r.send_ns) / 1e6);
    reply.push_back(static_cast<double>(r.recv_ns - at_conn->end_ns) / 1e6);
  }
  for (const auto& [op, spans] : by_op) {
    if (std::find(spans.begin(), spans.end(), nullptr) != spans.end()) {
      continue;
    }
    auto [lo, hi] = std::minmax_element(
        spans.begin(), spans.end(),
        [](const ApplySpan* a, const ApplySpan* b) { return a->start_ns < b->start_ns; });
    lag.push_back(static_cast<double>((*hi)->start_ns - (*lo)->start_ns) / 1e6);
  }
  s.order_ms_p50 = Percentile(order, 50);
  s.order_ms_p99 = Percentile(order, 99);
  s.reply_ms_p50 = Percentile(reply, 50);
  s.reply_ms_p99 = Percentile(reply, 99);
  s.lag_ms_p50 = Percentile(lag, 50);
  s.lag_ms_p99 = Percentile(lag, 99);
  s.apply_us_mean = apply_ns.Mean() / 1e3;
  s.apply_us_p99 = static_cast<double>(apply_ns.Percentile(99)) / 1e3;
  s.snapshots = snapshot_ms.size();
  s.snapshot_ms_p99 = Percentile(snapshot_ms, 99);
  return s;
}

bool WriteSpans(const std::string& path, const Tracer& tracer,
                const std::vector<RootSpan>& roots) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const RootSpan& r : roots) {
    std::fprintf(f,
                 "{\"span\":\"request\",\"client\":%llu,\"seq\":%llu,"
                 "\"replica\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(r.client),
                 static_cast<unsigned long long>(r.seq), r.conn,
                 static_cast<long long>(r.send_ns), static_cast<long long>(r.recv_ns));
  }
  for (const ShardTrace& t : tracer.shards()) {
    for (const ApplySpan& a : t.spans) {
      std::fprintf(f,
                   "{\"span\":\"apply\",\"parent\":[%llu,%llu],\"replica\":%u,"
                   "\"shard\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(a.client),
                   static_cast<unsigned long long>(a.seq), t.replica, t.shard,
                   static_cast<long long>(a.start_ns), static_cast<long long>(a.end_ns));
    }
    for (const ApplySpan& a : t.snapshots) {
      std::fprintf(f,
                   "{\"span\":\"snapshot\",\"replica\":%u,\"shard\":%u,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t.replica, t.shard, static_cast<long long>(a.start_ns),
                   static_cast<long long>(a.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
