#include "perfbench/util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      io.wchar = value;
    } else if (key == "syscr:") {
      io.syscr = value;
    } else if (key == "syscw:") {
      io.syscw = value;
    } else if (key == "write_bytes:") {
      io.write_bytes = value;
    }
  }
  return io;
}

CpuTimes ReadProcStat() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.compare(0, 4, "cpu ") != 0) {
    return t;
  }
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); i++) {
    t.total += v;
    if (i == 7) {
      t.steal = v;
    }
  }
  return t;
}

}  // namespace

Usage ReadUsage() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(v, 50); }

double StealFrac(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) {
    return 0;
  }
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t DirBytes(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec) &&
        it->path().filename().string().compare(0, prefix.size(), prefix) == 0) {
      total += it->file_size(ec);
    }
  }
  return total;
}

HostCounters ReadHostCounters() {
  HostCounters c;
  c.ns = NowNs();
  c.usage = ReadUsage();
  c.io = ReadProcIo();
  c.cpu = ReadProcStat();
  return c;
}

void Layers::SetHostRates(const HostCounters& a, const HostCounters& b, double ops) {
  host_steal_frac = StealFrac(a.cpu, b.cpu);
  if (ops <= 0) {
    return;
  }
  rt_ctx_switches_per_op =
      static_cast<double>(b.usage.ctx_switches - a.usage.ctx_switches) / ops;
  rt_syscalls_per_op =
      static_cast<double>((b.io.syscr - a.io.syscr) + (b.io.syscw - a.io.syscw)) / ops;
  rt_write_bytes_per_op = static_cast<double>(b.io.wchar - a.io.wchar) / ops;
  dur_disk_bytes_per_op = static_cast<double>(b.io.write_bytes - a.io.write_bytes) / ops;
}

void Emit(const EndToEnd& m, RunReport* report) {
  report->end_to_end = {
      {"cpu_us_per_op", m.cpu_us_per_op, "us"},
      {"setup_s", m.setup_s, "s"},
  };
}

void Emit(const Layers& m, RunReport* report) {
  report->per_layer = {
      {"throughput_ops_s", m.throughput_ops_s, "1/s"},
      {"latency_p50_ms", m.latency_p50_ms, "ms"},
      {"slo_ok_frac", m.slo_ok_frac, "ratio"},
      {"setup_wall_s", m.setup_wall_s, "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"rt.syscalls_per_op", m.rt_syscalls_per_op, "count"},
      {"rt.write_bytes_per_op", m.rt_write_bytes_per_op, "bytes"},
      {"rt.ctx_switches_per_op", m.rt_ctx_switches_per_op, "count"},
      {"rt.order_ms_p50", m.rt_order_ms_p50, "ms"},
      {"rt.order_ms_p99", m.rt_order_ms_p99, "ms"},
      {"rt.reply_ms_p50", m.rt_reply_ms_p50, "ms"},
      {"rt.reply_ms_p99", m.rt_reply_ms_p99, "ms"},
      {"rt.replica_lag_ms_p50", m.rt_replica_lag_ms_p50, "ms"},
      {"rt.replica_lag_ms_p99", m.rt_replica_lag_ms_p99, "ms"},
      {"smr.ops_per_batch", m.smr_ops_per_batch, "count"},
      {"smr.shard_balance", m.smr_shard_balance, "ratio"},
      {"core.fast_path_ratio", m.core_fast_path_ratio, "ratio"},
      {"core.msgs_per_cmd", m.core_msgs_per_cmd, "count"},
      {"core.recoveries", m.core_recoveries, "count"},
      {"kvs.apply_us_mean", m.kvs_apply_us_mean, "us"},
      {"kvs.apply_us_p99", m.kvs_apply_us_p99, "us"},
      {"kvs.applies_per_op", m.kvs_applies_per_op, "count"},
      {"dur.disk_bytes_per_op", m.dur_disk_bytes_per_op, "bytes"},
      {"dur.log_bytes_per_op", m.dur_log_bytes_per_op, "bytes"},
      {"dur.data_mb", m.dur_data_mb, "MB"},
      {"dur.snapshots", m.dur_snapshots, "count"},
      {"dur.snapshot_ms_p99", m.dur_snapshot_ms_p99, "ms"},
      {"gen.late_ms_p99", m.gen_late_ms_p99, "ms"},
      {"gen.late_ms_max", m.gen_late_ms_max, "ms"},
      {"client.send_us_p99", m.client_send_us_p99, "us"},
      {"host.steal_frac", m.host_steal_frac, "ratio"},
      {"host_cores", m.host_cores, "count"},
      {"trace.overhead_frac", m.trace_overhead_frac, "ratio"},
      {"trace.spans", m.trace_spans, "count"},
      {"failed_frac", m.failed_frac, "ratio"},
      {"latency_p90_ms", m.latency_p90_ms, "ms"},
      {"latency_p99_ms", m.latency_p99_ms, "ms"},
      {"latency_samples", m.latency_samples, "count"},
  };
}

void RunReport::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

}  // namespace perfbench
