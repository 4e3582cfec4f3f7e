// Link-failure measurement study (Figure 3 / §5.1).
//
// The paper ran a 3-month ping campaign among 17 GCP sites (1 ping per second per
// link) and counted simultaneous link failures under timeout thresholds of 3s/5s/10s,
// concluding that timeouts only ever clustered on links incident to a single site
// (hence f <= 1 in practice).
//
// Substitution: we cannot rerun GCP for three months, so we generate a
// synthetic campaign with the same structure the paper reports:
//   - rare site-level degradation episodes (all links incident to one site become slow
//     for minutes-to-hours), matching the two events the paper observed (QC on Nov 7,
//     TW on Dec 8);
//   - a heavy-tailed per-ping background jitter that occasionally crosses the lowest
//     threshold on isolated links.
// The monitor pipeline (threshold sweep, simultaneous-failure counting, minimum
// site-cover bound for f) is exercised end to end on this trace.
#ifndef SRC_HARNESS_LINKMON_H_
#define SRC_HARNESS_LINKMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace harness {

struct LinkMonOptions {
  uint64_t seed = 3;
  uint32_t sites = 17;
  uint32_t days = 90;
  // Site degradation episodes per campaign (Poisson mean). The paper observed two
  // (QC for ~2h, TW for ~2min).
  double episodes_mean = 2.0;
  // Episode duration: log-uniform between these bounds.
  common::Duration episode_min = 2 * 60 * common::kSecond;
  common::Duration episode_max = 3 * 60 * 60 * common::kSecond;
  // During an episode, per-ping latency on affected links ~ Exponential(mean), capped:
  // the paper's degradations were "slow links" in the seconds range — they show at the
  // 3s/5s thresholds but (almost) never at 10s.
  double episode_latency_mean_s = 4.0;
  double episode_latency_cap_s = 9.5;
  // Background: per-link probability that a given ping times out entirely (isolated
  // single-link blips; these are what the 10s threshold still sees).
  double background_blip_per_ping = 2e-9;
  std::vector<common::Duration> thresholds = {3 * common::kSecond, 5 * common::kSecond,
                                              10 * common::kSecond};
};

struct ThresholdSummary {
  common::Duration threshold = 0;
  uint32_t failure_events = 0;      // maximal intervals with >= 1 failed link
  uint32_t max_simultaneous = 0;    // peak number of concurrently failed links
  uint64_t failed_link_seconds = 0;
  uint32_t max_sites_to_cover = 0;  // minimum site cover of failed links, peak (=> f)
};

struct EpisodeRecord {
  uint32_t site = 0;
  common::Time start = 0;
  common::Duration duration = 0;
};

struct LinkMonResult {
  std::vector<ThresholdSummary> per_threshold;
  std::vector<EpisodeRecord> episodes;
  uint32_t background_blips = 0;
  // Smallest k such that, at every instant, crashing k sites would cover all slow
  // links (the paper's bound on f), under the lowest threshold.
  uint32_t f_bound = 0;
};

LinkMonResult RunLinkFailureStudy(const LinkMonOptions& options);

std::string FormatLinkMonReport(const LinkMonOptions& options, const LinkMonResult& r);

}  // namespace harness

#endif  // SRC_HARNESS_LINKMON_H_
