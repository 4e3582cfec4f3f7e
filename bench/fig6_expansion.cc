// Figure 6 (§5.4, "expanding the service"): latency penalty vs the optimal when the
// service grows to new locations and every new site brings its own clients; 128
// clients/site in the paper, 3KB payloads, 1% conflicts.
//
// Paper shape: FPaxos degrades sharply from ~9 sites (leader saturates broadcasting
// 3KB commands to everyone: penalty up to 4.7x); EPaxos near-optimal at 3-5 sites but
// >=1.5x from 11 sites (large fast quorums); Atlas stays within 4% (f=1) / 26% (f=2)
// of optimal because it spreads the broadcast cost across coordinators.
#include <cstdio>

#include "bench/bench_common.h"

using bench::Ms;
using bench::RunOnce;
using bench::RunSpec;
using bench::ScaledClients;

namespace {

// Egress model approximating an n1-standard-8 site for this message volume:
// 64 MB/s usable egress plus 20us/message CPU (a substitution for the paper's VMs).
constexpr double kEgressBytesPerSec = 64.0 * 1024 * 1024;
constexpr common::Duration kPerMessageCost = 20;

double PenaltyX(harness::Protocol protocol, uint32_t f, uint32_t sites,
                size_t clients_per_site, double optimal_ms) {
  RunSpec spec;
  spec.opts.protocol = protocol;
  spec.opts.f = f;
  spec.opts.site_regions = sim::ScaleOutSites(sites);
  spec.opts.seed = 6;
  spec.opts.egress_bytes_per_sec = kEgressBytesPerSec;
  spec.opts.per_message_cost = kPerMessageCost;
  spec.client_regions = spec.opts.site_regions;  // clients follow the deployment
  spec.clients_per_region = clients_per_site;
  spec.workload = std::make_shared<wl::MicroWorkload>(0.01, 3 * 1024);
  spec.warmup = 3 * common::kSecond;
  spec.measure = 6 * common::kSecond;
  harness::Metrics m = RunOnce(spec);
  return m.per_client_mean_us / 1000.0 / optimal_ms;
}

}  // namespace

int main() {
  const size_t clients = ScaledClients(32);  // paper: 128/site
  std::printf("=== Figure 6: latency penalty vs optimal when expanding 3->13 sites ===\n");
  std::printf("(%zu clients per deployed site, 1%% conflicts, 3KB payloads, egress-"
              "constrained sites)\n\n", clients);
  const uint32_t deployments[] = {3, 5, 7, 9, 11, 13};
  std::printf("%-12s", "protocol");
  for (uint32_t n : deployments) {
    std::printf("   n=%-3u", n);
  }
  std::printf("\n");

  struct Row {
    const char* name;
    harness::Protocol protocol;
    uint32_t f;
  };
  const Row rows[] = {
      {"FPaxos f=1", harness::Protocol::kFPaxos, 1},
      {"FPaxos f=2", harness::Protocol::kFPaxos, 2},
      {"Mencius", harness::Protocol::kMencius, 1},
      {"EPaxos", harness::Protocol::kEPaxos, 1},
      {"ATLAS f=1", harness::Protocol::kAtlas, 1},
      {"ATLAS f=2", harness::Protocol::kAtlas, 2},
  };
  for (const Row& row : rows) {
    std::printf("%-12s", row.name);
    for (uint32_t n : deployments) {
      if (row.f >= (n + 1) / 2) {
        std::printf("   %-5s", "-");
        continue;
      }
      // Optimal for clients co-located with the deployed sites.
      std::vector<size_t> sites = sim::ScaleOutSites(n);
      double optimal_ms = Ms(harness::OptimalLatency(sites, sites));
      double x = PenaltyX(row.protocol, row.f, n, clients, optimal_ms);
      std::printf("  %5.2fx", x);
    }
    std::printf("\n");
  }
  std::printf("\nPaper shape: FPaxos penalty grows sharply past 9 sites (leader "
              "saturation); EPaxos\ndegrades from 11 sites; ATLAS f=1 stays ~1.0x and "
              "f=2 within ~1.3x.\n");
  return 0;
}
