// Ablation bench: isolates the contribution of each Atlas design choice — the
// flexible fast-path condition (vs EPaxos-style matching), slow-path
// dependency pruning (§4), NFR (§4), and dependency compression (implementation-level).
#include <cstdio>

#include "bench/bench_common.h"

using bench::RunOnce;
using bench::RunSpec;
using bench::ScaledClients;

namespace {

harness::Metrics Run(bool prune, bool nfr, smr::IndexMode mode, double conflicts,
                     double read_pct, uint32_t f) {
  RunSpec spec;
  spec.opts.protocol = harness::Protocol::kAtlas;
  spec.opts.f = f;
  spec.opts.nfr = nfr;
  spec.opts.prune_slow_path = prune;
  spec.opts.index_mode = mode;
  spec.opts.site_regions = sim::ScaleOutSites(5);
  spec.opts.seed = 11;
  spec.client_regions = spec.opts.site_regions;
  spec.clients_per_region = ScaledClients(32);
  if (read_pct > 0) {
    spec.workload = std::make_shared<wl::YcsbWorkload>(10'000, read_pct, 100);
  } else {
    spec.workload = std::make_shared<wl::MicroWorkload>(conflicts, 100);
  }
  spec.warmup = 2 * common::kSecond;
  spec.measure = 5 * common::kSecond;
  return RunOnce(spec);
}

void Report(const char* name, const harness::Metrics& m) {
  std::printf("%-34s %9.0f op/s %8.1fms mean %8.0f%% fast  max-batch %-5zu %6.1f MB\n",
              name, m.ThroughputOpsPerSec(), m.latency.Mean() / 1000.0,
              m.fast_path_ratio * 100, m.max_batch,
              static_cast<double>(m.bytes_sent) / (1024.0 * 1024.0));
}

}  // namespace

int main() {
  std::printf("=== ATLAS ablations (5 sites) ===\n\n");

  std::printf("-- slow-path dependency pruning (§4), f=2, 50%% conflicts --\n");
  std::printf("   (per-identifier pruning requires the full index; under compression "
              "only the\n    conservative per-process rule is sound — see "
              "ThresholdUnionByProcInto)\n");
  Report("full index + per-dot pruning",
         Run(true, false, smr::IndexMode::kFull, 0.5, 0, 2));
  Report("full index, no pruning",
         Run(false, false, smr::IndexMode::kFull, 0.5, 0, 2));
  Report("compressed + per-proc pruning",
         Run(true, false, smr::IndexMode::kCompressed, 0.5, 0, 2));
  Report("compressed, no pruning",
         Run(false, false, smr::IndexMode::kCompressed, 0.5, 0, 2));

  std::printf("\n-- NFR reads (§4), f=2, YCSB 80%% reads --\n");
  Report("NFR ON", Run(true, true, smr::IndexMode::kCompressed, 0, 0.8, 2));
  Report("NFR OFF", Run(true, false, smr::IndexMode::kCompressed, 0, 0.8, 2));

  std::printf("\n-- dependency compression, f=1, 100%% conflicts --\n");
  Report("compressed index", Run(true, false, smr::IndexMode::kCompressed, 1.0, 0, 1));
  Report("full index", Run(true, false, smr::IndexMode::kFull, 1.0, 0, 1));

  std::printf("\n-- fault-tolerance level, 10%% conflicts --\n");
  Report("f=1 (majority fast quorum)",
         Run(true, false, smr::IndexMode::kCompressed, 0.1, 0, 1));
  Report("f=2 (majority+1 fast quorum)",
         Run(true, false, smr::IndexMode::kCompressed, 0.1, 0, 2));
  return 0;
}
