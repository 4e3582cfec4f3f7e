// The two loopback-TCP workloads.
//
// lan_closed_private: closed loop, 3 connections (one per replica), each with
// 64 outstanding 100-byte puts on keys private to that connection, one
// generator thread per connection. It measures peak ordering capacity: the rt
// I/O tier, smr batching, the codec and the Atlas fast path do all the work;
// conflicts, the executor graph and disk do none.
//
// lan_open_ycsb_durable: open loop, Poisson arrivals at a fixed 20k ops/s
// (about 20% of the closed-loop capacity) of YCSB-A (100k records, zipf 0.99,
// 50% reads) over the same 3 connections, on durable replicas (commit log
// with fsync=batch, snapshots). One sender and three receiver threads stay
// within 4 cores. The same layers work differently here: batches do not
// fill, so the batch window adds wait; hot keys add dependency waits; reads
// sit beside writes; the log and snapshots do real I/O. Latency is timed
// from each request's due time, so a stall also charges the requests queued
// behind it. The rate leaves the replicas headroom: they need about 2 of 4
// cores, and when a shared host takes a third of the VM's CPU the closed
// loop still completes 26k ops/s. At 40k ops/s such a host saturates the
// run and its p50 grows fivefold.
//
// Both pre-generate their commands (and the arrival schedule) from the seed
// before the cluster starts, so no string building competes with the
// replicas for the cores. Teardown is drained: stop issuing, wait for every
// reply, stop and join the nodes, and only then close the clients.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/lan_cluster.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/common/rng.h"
#include "src/wl/workload.h"

namespace perfbench {
namespace {

constexpr double kWarmupS = 2.0;
constexpr double kSloMs = 10.0;
// Start-ups per untraced run; setup_s is the median of their processor time.
constexpr int kSetupReps = 5;
// How long a drain may take before the run is failed.
constexpr auto kDrainTimeout = std::chrono::seconds(30);

constexpr size_t kClosedWindow = 64;
constexpr size_t kPrivateKeys = 1024;  // per connection; > window, so no op
                                       // waits on an in-flight op of its own
constexpr size_t kClosedRing = 4 * kPrivateKeys;
constexpr size_t kValueBytes = 100;

constexpr double kOpenRate = 20000;
constexpr uint64_t kYcsbRecords = 100000;
constexpr double kYcsbReadShare = 0.5;
constexpr size_t kOpenRing = 1 << 16;

// Outstanding-request table of a closed-loop connection, indexed by seq.
constexpr uint64_t kSlots = 1 << 16;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void SleepUntilNs(int64_t t) {
  int64_t now = NowNs();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  }
}

// Removes a run's durable data, after recording its size, on every path.
class DataDir {
 public:
  DataDir(const std::string& work_dir, bool durable) {
    if (durable) {
      path_ = work_dir + "/data-" + std::to_string(getpid()) + "-" +
              std::to_string(NowNs());
    }
  }
  ~DataDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  DataDir(const DataDir&) = delete;
  DataDir& operator=(const DataDir&) = delete;

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const {
    return path_.empty() ? std::string() : path_ + "/" + name;
  }

 private:
  std::string path_;
};

// One latency sample; `at_ns` places it in a 1-second window (receipt time
// in the closed loop, due time in the open loop).
struct Sample {
  int64_t at_ns = 0;
  double ms = 0;
};

// Processor time of the process at one instant of the measure window.
struct CpuTick {
  int64_t ns = 0;
  double cpu_us = 0;
};

// One measured phase on one cluster.
struct LanPhase {
  double setup_s = 0;       // median over the phase's start-ups: wall clock
  double setup_cpu_s = 0;   // and processor time
  HostCounters begin, end;
  std::vector<CpuTick> ticks;  // begin, every whole second after it, end
  std::vector<int64_t> done_ns;  // completion times of the window's ops, sorted
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed_in_window = 0;
  std::vector<Sample> samples;  // ops in the window
  int64_t window_origin_ns = 0;
  uint64_t slo_ok = 0, slo_total = 0;
  common::Histogram send_ns, late_ns;
  std::vector<RootSpan> roots;
  EngineTotals totals;
  uint64_t data_bytes = 0, log_bytes = 0;

  double window_s() const { return static_cast<double>(end.ns - begin.ns) / 1e9; }
  // Processor time per completed op, as the median over the window's
  // 1-second slices: a host disturbance of a few seconds moves its slices,
  // not the figure.
  double CpuUsPerOp() const {
    std::vector<double> per_slice;
    for (size_t i = 0; i + 1 < ticks.size(); i++) {
      auto lo = std::lower_bound(done_ns.begin(), done_ns.end(), ticks[i].ns);
      auto hi = std::lower_bound(done_ns.begin(), done_ns.end(), ticks[i + 1].ns);
      if (hi > lo) {
        per_slice.push_back((ticks[i + 1].cpu_us - ticks[i].cpu_us) /
                            static_cast<double>(hi - lo));
      }
    }
    return Median(per_slice);
  }
  double throughput() const {
    return window_s() > 0 ? static_cast<double>(completed_in_window) / window_s() : 0;
  }
  // Latency percentile over the whole window.
  double Pooled(double p) const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) {
      v.push_back(s.ms);
    }
    return Percentile(v, p);
  }
  // The window cut into slices of about one second: the samples of each.
  std::vector<std::vector<double>> Slices() const {
    size_t n = std::max<size_t>(1, static_cast<size_t>(std::llround(window_s())));
    double slice_ns = window_s() * 1e9 / static_cast<double>(n);
    std::vector<std::vector<double>> slices(n);
    for (const Sample& s : samples) {
      double i = static_cast<double>(s.at_ns - window_origin_ns) / slice_ns;
      slices[std::min<size_t>(n - 1, static_cast<size_t>(std::max(0.0, i)))].push_back(s.ms);
    }
    return slices;
  }
  // The median over the slices of each slice's latency percentile. A host
  // stall of a few hundred milliseconds moves the pooled p99 of a 10-second
  // run by a quarter; here it moves one slice.
  double Windowed(double p) const {
    std::vector<double> per_slice;
    for (auto& v : Slices()) {
      if (!v.empty()) {
        per_slice.push_back(Percentile(v, p));
      }
    }
    return Median(per_slice);
  }
  // The median over the slices of the completions per second.
  double WindowedThroughput() const {
    std::vector<std::vector<double>> slices = Slices();
    double slice_s = window_s() / static_cast<double>(slices.size());
    std::vector<double> rates;
    for (const auto& v : slices) {
      rates.push_back(static_cast<double>(v.size()) / slice_s);
    }
    return Median(rates);
  }
};

constexpr int64_t kTickNs = 1000 * 1000 * 1000;

// Sleeps through the measure window that starts at `at`, taking the host
// counters at both edges and the processor time at every whole second in
// between. `phase`, when given, reads 1 inside the window and 2 after it.
void MeasureWindow(int64_t at, double seconds, std::atomic<int>* phase, LanPhase* out) {
  SleepUntilNs(at);
  out->begin = ReadHostCounters();
  if (phase != nullptr) {
    phase->store(1);
  }
  out->ticks.push_back(CpuTick{out->begin.ns, out->begin.usage.cpu_us});
  const int64_t end = out->begin.ns + static_cast<int64_t>(seconds * 1e9);
  for (int64_t t = out->begin.ns + kTickNs; t < end - kTickNs / 2; t += kTickNs) {
    SleepUntilNs(t);
    out->ticks.push_back(CpuTick{NowNs(), ReadUsage().cpu_us});
  }
  SleepUntilNs(end);
  if (phase != nullptr) {
    phase->store(2);
  }
  out->end = ReadHostCounters();
  out->ticks.push_back(CpuTick{out->end.ns, out->end.usage.cpu_us});
}

// Brings up `reps` clusters one after another; all but the last are drained
// and torn down again right after start-up. `keep` ends up running.
bool StartCluster(LanCluster* keep, int reps, const DataDir& data, Tracer* tracer,
                  LanPhase* out, RunReport* report) {
  std::vector<double> setups, setup_cpus;
  std::string err;
  for (int r = 0; r < reps; r++) {
    std::string dir = data.Sub("c" + std::to_string(r));
    LanCluster probe;
    LanCluster* cluster = r + 1 < reps ? &probe : keep;
    // Nothing else runs in the process now: earlier start-ups are joined.
    double cpu_us = ReadUsage().cpu_us;
    if (!cluster->Start(dir, r + 1 < reps ? nullptr : tracer, &err)) {
      report->Fail(err);
      return false;
    }
    setup_cpus.push_back((ReadUsage().cpu_us - cpu_us) / 1e6);
    setups.push_back(cluster->setup_s());
    if (cluster == &probe) {
      out->failed += probe.Shutdown(0, report);
    }
  }
  out->setup_s = Median(setups);
  out->setup_cpu_s = Median(setup_cpus);
  return true;
}

std::string RandomValue(common::Rng& rng, size_t n) {
  std::string v(n, 'a');
  for (char& ch : v) {
    ch = static_cast<char>('a' + rng.Below(26));
  }
  return v;
}

// ---- lan_closed_private ----

std::vector<std::vector<smr::Command>> MakeClosedRings(uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<smr::Command>> rings(kReplicas);
  for (uint32_t c = 0; c < kReplicas; c++) {
    std::set<std::string> seen;
    std::vector<std::string> keys;
    while (keys.size() < kPrivateKeys) {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "c%u-%08llx", c,
                    static_cast<unsigned long long>(rng.Next() & 0xffffffffu));
      if (seen.insert(buf).second) {
        keys.push_back(buf);
      }
    }
    for (size_t i = 0; i < kClosedRing; i++) {
      rings[c].push_back(
          smr::MakePut(c + 1, 0, keys[i % kPrivateKeys], RandomValue(rng, kValueBytes)));
    }
  }
  return rings;
}

struct ClosedConn {
  uint64_t sent = 0;
  uint64_t bad = 0;       // unknown, duplicate or wrong replies
  uint64_t unanswered = 0;
  std::vector<Sample> samples;
  common::Histogram send_ns;
  std::vector<RootSpan> roots;
};

// 0 = warm-up, 1 = measuring, 2 = stop issuing.
void ClosedClient(uint32_t c, rt::Client* client, std::vector<smr::Command> ring,
                  const std::atomic<int>* phase, bool traced, ClosedConn* out,
                  std::atomic<int>* done) {
  struct Slot {
    uint64_t seq = 0;  // 0 = free
    int64_t send_ns = 0;
  };
  std::vector<Slot> slots(kSlots);
  uint64_t next_seq = 1;
  size_t outstanding = 0;
  bool lost = false;
  std::string result;
  while (true) {
    if (phase->load(std::memory_order_relaxed) != 2) {
      while (outstanding < kClosedWindow) {
        smr::Command& cmd = ring[next_seq % ring.size()];
        cmd.seq = next_seq;
        Slot& slot = slots[next_seq % kSlots];
        if (slot.seq != 0) {
          lost = true;  // an op outlived kSlots later sends
          break;
        }
        int64_t t0 = NowNs();
        bool ok = client->Send(cmd);
        int64_t t1 = NowNs();
        out->send_ns.Record(t1 - t0);
        if (!ok) {
          lost = true;
          break;
        }
        slot = Slot{next_seq, t0};
        next_seq++;
        outstanding++;
      }
    }
    if (lost || outstanding == 0) {
      break;
    }
    uint64_t seq = 0;
    if (!client->RecvReply(&seq, &result)) {
      lost = true;
      break;
    }
    int64_t now = NowNs();
    Slot& slot = slots[seq % kSlots];
    if (slot.seq != seq) {
      out->bad++;  // not outstanding: unknown or duplicate
      continue;
    }
    slot.seq = 0;
    outstanding--;
    if (!result.empty()) {
      out->bad++;  // a put answers ""
      continue;
    }
    if (phase->load(std::memory_order_relaxed) == 1) {
      out->samples.push_back(Sample{now, Ms(now - slot.send_ns)});
    }
    if (traced && Sampled(c + 1, seq)) {
      out->roots.push_back(RootSpan{c, c + 1, seq, slot.send_ns, now});
    }
  }
  out->sent = next_seq - 1;
  out->unanswered = outstanding;
  if (lost) {
    std::fprintf(stderr, "perfbench: connection %u lost with %zu outstanding\n", c,
                 outstanding);
  }
  done->fetch_add(1);
}

bool RunClosedPhase(const RunArgs& args,
                    const std::vector<std::vector<smr::Command>>& rings,
                    Tracer* tracer, int setup_reps, LanPhase* out,
                    RunReport* report) {
  DataDir data(args.work_dir, false);
  LanCluster cluster;
  if (!StartCluster(&cluster, setup_reps, data, tracer, out, report)) {
    return false;
  }
  std::atomic<int> phase{0};
  std::atomic<int> done{0};
  std::vector<ClosedConn> conns(kReplicas);
  for (auto& conn : conns) {
    conn.samples.reserve(static_cast<size_t>(args.seconds * 60000));
  }
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kReplicas; c++) {
    threads.emplace_back(ClosedClient, c, &cluster.client(c), rings[c], &phase,
                         tracer != nullptr, &conns[c], &done);
  }
  MeasureWindow(NowNs() + static_cast<int64_t>(kWarmupS * 1e9), args.seconds, &phase, out);

  auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (done.load() < static_cast<int>(kReplicas) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool drained = done.load() == static_cast<int>(kReplicas);
  if (!drained) {
    report->Fail("replies still outstanding after the drain timeout");
    cluster.Abort();
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t workload_ops = 0;
  for (ClosedConn& conn : conns) {
    workload_ops += conn.sent;
    out->attempted += conn.sent;
    out->failed += conn.bad + conn.unanswered;
    out->completed_in_window += conn.samples.size();
    for (const Sample& sample : conn.samples) {
      out->done_ns.push_back(sample.at_ns);
    }
    out->samples.insert(out->samples.end(), conn.samples.begin(), conn.samples.end());
    out->send_ns.Merge(conn.send_ns);
    out->roots.insert(out->roots.end(), conn.roots.begin(), conn.roots.end());
  }
  if (out->failed > 0) {
    report->Fail(std::to_string(out->failed) + " requests failed or went unanswered");
  }
  out->window_origin_ns = out->begin.ns;
  std::sort(out->done_ns.begin(), out->done_ns.end());
  for (const Sample& sample : out->samples) {
    out->slo_total++;
    out->slo_ok += sample.ms <= kSloMs ? 1 : 0;
  }
  if (drained) {
    out->failed += cluster.Shutdown(workload_ops, report);
    out->totals = cluster.totals();
  }
  return drained;
}

// ---- lan_open_ycsb_durable ----

struct OpenSchedule {
  std::vector<int64_t> due_ns;  // offset from the schedule's start
  std::vector<uint8_t> conn;
  std::vector<uint64_t> seq;    // per-connection sequence number, from 1
  std::vector<std::vector<uint32_t>> op_of_seq;  // [conn][seq] -> op index
  std::vector<smr::Command> ring;
  std::vector<uint8_t> ring_is_read;
  std::string value;  // the one value YCSB writes
  int64_t window_begin = 0, window_end = 0;
};

OpenSchedule MakeOpenSchedule(uint64_t seed, double seconds) {
  OpenSchedule s;
  common::Rng rng(seed);
  wl::YcsbWorkload ycsb(kYcsbRecords, kYcsbReadShare, kValueBytes);
  for (size_t i = 0; i < kOpenRing; i++) {
    s.ring.push_back(ycsb.Next(0, 0, rng));
    s.ring_is_read.push_back(s.ring.back().is_read() ? 1 : 0);
    if (!s.ring.back().is_read()) {
      s.value = std::string(s.ring.back().value.view());
    }
  }
  s.window_begin = static_cast<int64_t>(kWarmupS * 1e9);
  s.window_end = s.window_begin + static_cast<int64_t>(seconds * 1e9);
  s.op_of_seq.assign(kReplicas, std::vector<uint32_t>(1, 0));
  const double mean_gap_ns = 1e9 / kOpenRate;
  double t = 0;
  while (true) {
    t += rng.Exponential(mean_gap_ns);
    if (t >= static_cast<double>(s.window_end)) {
      break;
    }
    uint8_t c = static_cast<uint8_t>(rng.Below(kReplicas));
    s.due_ns.push_back(static_cast<int64_t>(t));
    s.conn.push_back(c);
    s.seq.push_back(s.op_of_seq[c].size());
    s.op_of_seq[c].push_back(static_cast<uint32_t>(s.due_ns.size() - 1));
  }
  return s;
}

struct OpenConn {
  uint64_t bad = 0;
  uint64_t answered = 0;
  uint64_t completed_in_window = 0;
  uint64_t slo_ok = 0;
  std::vector<Sample> samples;  // ops due in the window
  std::vector<RootSpan> roots;
};

bool RunOpenPhase(const RunArgs& args, const OpenSchedule& sched, Tracer* tracer,
                  int setup_reps, LanPhase* out, RunReport* report) {
  DataDir data(args.work_dir, true);
  LanCluster cluster;
  if (!StartCluster(&cluster, setup_reps, data, tracer, out, report)) {
    return false;
  }
  const size_t n = sched.due_ns.size();
  const bool traced = tracer != nullptr;
  std::vector<std::atomic<int64_t>> sent_at(traced ? n : 0);
  std::vector<uint8_t> answered(n, 0);
  std::vector<int64_t> done_at(n, 0);
  std::atomic<bool> sender_failed{false};
  std::atomic<int> done{0};
  std::vector<OpenConn> conns(kReplicas);
  const int64_t start = NowNs() + 20 * 1000 * 1000;

  std::thread sender([&]() {
    std::vector<smr::Command> ring = sched.ring;
    for (size_t i = 0; i < n; i++) {
      int64_t due = start + sched.due_ns[i];
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      out->late_ns.Record(now - due);
      smr::Command& cmd = ring[i % ring.size()];
      uint32_t c = sched.conn[i];
      cmd.client = c + 1;
      cmd.seq = sched.seq[i];
      if (traced) {
        sent_at[i].store(now, std::memory_order_relaxed);
      }
      bool ok = cluster.client(c).Send(cmd);
      out->send_ns.Record(NowNs() - now);
      if (!ok) {
        sender_failed.store(true);
        break;
      }
    }
    done.fetch_add(1);
  });
  std::vector<std::thread> receivers;
  for (uint32_t c = 0; c < kReplicas; c++) {
    receivers.emplace_back([&, c]() {
      OpenConn& me = conns[c];
      const std::vector<uint32_t>& ops = sched.op_of_seq[c];
      std::string result;
      while (me.answered < ops.size() - 1) {
        uint64_t seq = 0;
        if (!cluster.client(c).RecvReply(&seq, &result)) {
          break;
        }
        int64_t now = NowNs();
        if (seq == 0 || seq >= ops.size() || answered[ops[seq]] != 0) {
          me.bad++;  // unknown or duplicate
          continue;
        }
        uint32_t op = ops[seq];
        answered[op] = 1;
        done_at[op] = now;
        me.answered++;
        // A put answers ""; a get answers "" or the one value YCSB writes.
        bool is_read = sched.ring_is_read[op % sched.ring.size()] != 0;
        if (!(result.empty() || (is_read && result == sched.value))) {
          me.bad++;
          continue;
        }
        int64_t due = sched.due_ns[op];
        double latency = Ms(now - (start + due));
        if (due >= sched.window_begin) {
          me.samples.push_back(Sample{start + due, latency});
          me.slo_ok += latency <= kSloMs ? 1 : 0;
        }
        if (now - start >= sched.window_begin && now - start < sched.window_end) {
          me.completed_in_window++;
        }
        if (traced && Sampled(c + 1, seq)) {
          me.roots.push_back(RootSpan{c, c + 1, seq,
                                      sent_at[op].load(std::memory_order_relaxed), now});
        }
      }
      done.fetch_add(1);
    });
  }
  MeasureWindow(start + sched.window_begin, args.seconds, nullptr, out);

  auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  while (done.load() < static_cast<int>(kReplicas + 1) && !sender_failed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool drained = done.load() == static_cast<int>(kReplicas + 1);
  if (!drained) {
    report->Fail("replies still outstanding after the drain timeout");
    cluster.Abort();
  }
  sender.join();
  for (auto& t : receivers) {
    t.join();
  }
  uint64_t answered_total = 0;
  for (OpenConn& conn : conns) {
    answered_total += conn.answered;
    out->failed += conn.bad;
    out->completed_in_window += conn.completed_in_window;
    out->slo_ok += conn.slo_ok;
    out->samples.insert(out->samples.end(), conn.samples.begin(), conn.samples.end());
    out->roots.insert(out->roots.end(), conn.roots.begin(), conn.roots.end());
  }
  out->window_origin_ns = start + sched.window_begin;
  for (int64_t t : done_at) {
    if (t >= out->begin.ns && t < out->end.ns) {
      out->done_ns.push_back(t);
    }
  }
  std::sort(out->done_ns.begin(), out->done_ns.end());
  out->attempted = n;
  out->failed += n - std::min<uint64_t>(n, answered_total);
  for (size_t i = 0; i < n; i++) {
    out->slo_total += sched.due_ns[i] >= sched.window_begin ? 1 : 0;
  }
  if (out->failed > 0) {
    report->Fail(std::to_string(out->failed) + " requests failed or went unanswered");
  }
  if (drained) {
    out->failed += cluster.Shutdown(n, report);
    out->totals = cluster.totals();
  }
  out->data_bytes = DirBytes(data.path(), "");
  out->log_bytes = DirBytes(data.path(), "log-");
  return drained;
}

// ---- reporting ----

void NotePhase(const char* label, const LanPhase& p, RunReport* report) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "%s: %.0f ops/s over %.2fs, %.2f us cpu/op, latency p50 %.3f p90 %.3f p99 %.3f ms "
      "(medians of 1-s slices; pooled p99 %.3f ms, n=%zu), setup %.3fs (cpu %.4fs), "
      "attempted %llu failed %llu, host_cores %u steal %.4f, send p99 %.1f us, "
      "generator late p99 %.3f ms max %.3f ms, durable data %.1f MB",
      label, p.throughput(), p.window_s(), p.CpuUsPerOp(), p.Windowed(50), p.Windowed(90),
      p.Windowed(99), p.Pooled(99), p.samples.size(), p.setup_s, p.setup_cpu_s,
      static_cast<unsigned long long>(p.attempted),
      static_cast<unsigned long long>(p.failed), std::thread::hardware_concurrency(),
      StealFrac(p.begin.cpu, p.end.cpu),
      static_cast<double>(p.send_ns.Percentile(99)) / 1e3,
      Ms(p.late_ns.Percentile(99)), Ms(p.late_ns.max()),
      static_cast<double>(p.data_bytes) / 1e6);
  report->Note(line);
}

void Account(const LanPhase& p, RunReport* report) {
  report->attempted += p.attempted;
  report->failed += p.failed;
}

EndToEnd LanEndToEnd(const LanPhase& p) {
  EndToEnd e;
  e.cpu_us_per_op = p.CpuUsPerOp();
  e.setup_s = p.setup_cpu_s;
  return e;
}

// Counters come from the untraced phase, spans from the traced one.
Layers LanLayers(const LanPhase& plain, double throughput, double peak_rss_mb,
                 const LanPhase& traced, const Tracer& tracer,
                 const std::string& span_path, RunReport* report) {
  Layers l;
  l.throughput_ops_s = throughput;
  l.latency_p50_ms = plain.Windowed(50);
  l.slo_ok_frac = plain.slo_total > 0 ? static_cast<double>(plain.slo_ok) /
                                            static_cast<double>(plain.slo_total)
                                      : 0;
  l.setup_wall_s = plain.setup_s;
  l.peak_rss_mb = peak_rss_mb;
  l.SetHostRates(plain.begin, plain.end, static_cast<double>(plain.completed_in_window));
  const EngineTotals& t = plain.totals;
  double client_ops = static_cast<double>(t.applied) / kReplicas;
  l.smr_ops_per_batch =
      t.executed > 0 ? static_cast<double>(t.applied) / static_cast<double>(t.executed) : 0;
  l.smr_shard_balance = t.shard_balance;
  l.core_fast_path_ratio =
      t.fast + t.slow > 0 ? static_cast<double>(t.fast) / static_cast<double>(t.fast + t.slow)
                          : 0;
  l.core_msgs_per_cmd = client_ops > 0 ? static_cast<double>(t.messages) / client_ops : 0;
  l.core_recoveries = static_cast<double>(t.recoveries + traced.totals.recoveries);
  double ops = static_cast<double>(plain.attempted + kReplicas);
  l.dur_log_bytes_per_op = static_cast<double>(plain.log_bytes) / ops;
  l.dur_data_mb = static_cast<double>(plain.data_bytes) / 1e6;
  l.gen_late_ms_p99 = Ms(plain.late_ns.Percentile(99));
  l.gen_late_ms_max = Ms(plain.late_ns.max());
  l.client_send_us_p99 = static_cast<double>(plain.send_ns.Percentile(99)) / 1e3;
  l.host_cores = std::thread::hardware_concurrency();
  l.failed_frac = static_cast<double>(report->failed) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted));
  l.latency_p90_ms = plain.Windowed(90);
  l.latency_p99_ms = plain.Windowed(99);
  l.latency_samples = static_cast<double>(plain.samples.size());

  SpanSummary s = Summarize(tracer, traced.roots, kReplicas);
  l.rt_order_ms_p50 = s.order_ms_p50;
  l.rt_order_ms_p99 = s.order_ms_p99;
  l.rt_reply_ms_p50 = s.reply_ms_p50;
  l.rt_reply_ms_p99 = s.reply_ms_p99;
  l.rt_replica_lag_ms_p50 = s.lag_ms_p50;
  l.rt_replica_lag_ms_p99 = s.lag_ms_p99;
  l.kvs_apply_us_mean = s.apply_us_mean;
  l.kvs_apply_us_p99 = s.apply_us_p99;
  l.kvs_applies_per_op =
      static_cast<double>(s.applies) / static_cast<double>(traced.attempted + kReplicas);
  l.dur_snapshots = static_cast<double>(s.snapshots);
  l.dur_snapshot_ms_p99 = s.snapshot_ms_p99;
  l.trace_spans = static_cast<double>(s.spans);
  if (!WriteSpans(span_path, tracer, traced.roots)) {
    report->Fail("could not write spans to " + span_path);
  } else {
    report->Note("spans written to " + span_path);
  }
  return l;
}

}  // namespace

RunReport RunLanClosedPrivate(const RunArgs& args) {
  RunReport report;
  auto rings = MakeClosedRings(args.seed);
  LanPhase plain;
  bool ok = RunClosedPhase(args, rings, nullptr, args.trace ? 1 : kSetupReps, &plain,
                           &report);
  const double peak_rss_mb = PeakRssMb();
  Account(plain, &report);
  NotePhase("lan_closed_private", plain, &report);
  if (!ok) {
    return report;
  }
  if (!args.trace) {
    Emit(LanEndToEnd(plain), &report);
    return report;
  }
  Tracer tracer;
  LanPhase traced;
  ok = RunClosedPhase(args, rings, &tracer, 1, &traced, &report);
  Account(traced, &report);
  NotePhase("lan_closed_private traced", traced, &report);
  if (!ok) {
    return report;
  }
  // Capacity is the median of the per-second completion rates.
  Layers l = LanLayers(plain, plain.WindowedThroughput(), peak_rss_mb, traced, tracer,
                       args.work_dir + "/lan_closed_private.spans.jsonl", &report);
  l.trace_overhead_frac = traced.CpuUsPerOp() / plain.CpuUsPerOp() - 1;
  Emit(l, &report);
  return report;
}

RunReport RunLanOpenYcsbDurable(const RunArgs& args) {
  RunReport report;
  OpenSchedule sched = MakeOpenSchedule(args.seed, args.seconds);
  LanPhase plain;
  bool ok = RunOpenPhase(args, sched, nullptr, args.trace ? 1 : kSetupReps, &plain,
                         &report);
  const double peak_rss_mb = PeakRssMb();
  Account(plain, &report);
  NotePhase("lan_open_ycsb_durable", plain, &report);
  if (!ok) {
    return report;
  }
  if (!args.trace) {
    Emit(LanEndToEnd(plain), &report);
    return report;
  }
  Tracer tracer;
  LanPhase traced;
  ok = RunOpenPhase(args, sched, &tracer, 1, &traced, &report);
  Account(traced, &report);
  NotePhase("lan_open_ycsb_durable traced", traced, &report);
  if (!ok) {
    return report;
  }
  // Completions per second over the window; short of the offered rate only
  // when a backlog built up.
  Layers l = LanLayers(plain, plain.throughput(), peak_rss_mb, traced, tracer,
                       args.work_dir + "/lan_open_ycsb_durable.spans.jsonl", &report);
  l.trace_overhead_frac = traced.CpuUsPerOp() / plain.CpuUsPerOp() - 1;
  Emit(l, &report);
  return report;
}

}  // namespace perfbench
