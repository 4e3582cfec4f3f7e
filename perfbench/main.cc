// The repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads: lan_closed_private, lan_open_ycsb_durable (see lan_workloads.cc
// for what each measures and why).
// Prints human-readable notes, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). perfbench/run.py builds and runs it.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

namespace {

// A run that has not finished by then is killed without a result.
constexpr int kWatchdogSeconds = 170;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <lan_closed_private|lan_open_ycsb_durable> "
               "--seed <n> --seconds <1-60> --trace <0|1> "
               "--work-dir <dir>\n");
  return 2;
}

void PrintResult(const perfbench::RunReport& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < metrics.size(); i++) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && args.seconds >= 1 && args.seconds <= 60;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      args.work_dir.empty()) {
    return Usage();
  }
  perfbench::RunReport (*run)(const perfbench::RunArgs&) = nullptr;
  if (workload == "lan_closed_private") {
    run = perfbench::RunLanClosedPrivate;
  } else if (workload == "lan_open_ycsb_durable") {
    run = perfbench::RunLanOpenYcsbDurable;
  } else {
    return Usage();
  }

  std::atomic<bool> finished{false};
  std::thread watchdog([&finished]() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(kWatchdogSeconds);
    while (!finished.load()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr, "perfbench: run exceeded %d s, aborting\n", kWatchdogSeconds);
        std::_Exit(3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  perfbench::RunReport report = run(args);
  finished.store(true);
  watchdog.join();

  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  PrintResult(report, args.trace);
  std::fflush(stdout);
  return 0;
}
