// Measurement helpers shared by the benchmark workloads: clocks, exact
// percentiles, the host counters the per-layer metrics are built from
// (/proc/self/io, /proc/stat, getrusage) and the result record every workload
// fills in.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock. Client root spans and the traced store's
// apply spans use this one clock, so spans from different threads line up.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exact percentile (linear interpolation between closest ranks) of `v`,
// p in [0, 100]. Reorders `v`. 0 for an empty sample.
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

// Process-wide counters. Each snapshot is a point in time; per-op figures are
// differences between two snapshots divided by the ops in between.
struct ProcIo {
  uint64_t wchar = 0;        // bytes handed to write-family syscalls (sockets too)
  uint64_t syscr = 0;        // read-family syscalls
  uint64_t syscw = 0;        // write-family syscalls
  uint64_t write_bytes = 0;  // bytes this process caused to be sent to storage
};

struct CpuTimes {
  uint64_t total = 0;  // all jiffies of the host's aggregate cpu line
  uint64_t steal = 0;
};
// Share of host CPU time stolen by the hypervisor between two snapshots.
double StealFrac(const CpuTimes& a, const CpuTimes& b);

struct Usage {
  double cpu_us = 0;         // user + system time of every thread of the process
  uint64_t ctx_switches = 0; // voluntary + involuntary
};
Usage ReadUsage();
double PeakRssMb();

// Bytes of regular files under `dir` whose name starts with `prefix`
// ("" = every file).
uint64_t DirBytes(const std::string& dir, const std::string& prefix);

// Counter snapshot taken at both edges of a measure window.
struct HostCounters {
  int64_t ns = 0;
  Usage usage;
  ProcIo io;
  CpuTimes cpu;
};
HostCounters ReadHostCounters();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `correct` covers every check the workload makes:
// replica digests and applied counts, reply values, and that every attempted
// op was answered exactly once.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Human-readable lines (host noise, sample counts, data sizes) printed
  // before the JSON result.
  std::vector<std::string> notes;

  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
};

// The end-to-end metrics every workload reports (trace = false). Both are
// processor time, which the hypervisor's steal does not enter; wall-clock
// figures are per-layer (see README.md, "Host noise").
struct EndToEnd {
  // Processor time (user + system, every thread of the process) in the
  // measure window per op completed in it.
  double cpu_us_per_op = 0;
  // Processor time of one start-up, as the median over several.
  double setup_s = 0;
};

// The per-layer metrics every workload reports (trace = true). A layer a
// workload does not exercise reads 0.
struct Layers {
  // Wall-clock figures of the untraced run.
  double throughput_ops_s = 0;
  double latency_p50_ms = 0;
  double slo_ok_frac = 0;
  double setup_wall_s = 0;
  double peak_rss_mb = 0;

  double rt_syscalls_per_op = 0;
  double rt_write_bytes_per_op = 0;
  double rt_ctx_switches_per_op = 0;
  double rt_order_ms_p50 = 0, rt_order_ms_p99 = 0;
  double rt_reply_ms_p50 = 0, rt_reply_ms_p99 = 0;
  double rt_replica_lag_ms_p50 = 0, rt_replica_lag_ms_p99 = 0;
  double smr_ops_per_batch = 0;
  double smr_shard_balance = 0;
  double core_fast_path_ratio = 0;
  double core_msgs_per_cmd = 0;
  double core_recoveries = 0;
  double kvs_apply_us_mean = 0, kvs_apply_us_p99 = 0;
  double kvs_applies_per_op = 0;
  double dur_disk_bytes_per_op = 0;
  double dur_log_bytes_per_op = 0;
  double dur_data_mb = 0;
  double dur_snapshots = 0;
  double dur_snapshot_ms_p99 = 0;
  double gen_late_ms_p99 = 0, gen_late_ms_max = 0;
  double client_send_us_p99 = 0;
  double host_steal_frac = 0;
  double host_cores = 0;
  double trace_overhead_frac = 0;
  double trace_spans = 0;
  double failed_frac = 0;
  double latency_p90_ms = 0, latency_p99_ms = 0;
  double latency_samples = 0;

  // The counter-derived fields over a measure window of `ops` operations.
  void SetHostRates(const HostCounters& a, const HostCounters& b, double ops);
};

void Emit(const EndToEnd& m, RunReport* report);
void Emit(const Layers& m, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
