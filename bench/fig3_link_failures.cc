// Figure 3 (§5.1): number of simultaneous link failures among 17 GCP sites as a
// function of the failure-detection timeout threshold, over a 90-day campaign.
//
// Paper result: with a 10s threshold only two single-link events occur; with 3s/5s
// thresholds two noticeable events appear (QC on Nov 7, TW on Dec 8), but at every
// instant all slow links are incident to at most ONE site => f <= 1 held throughout.
//
// Substitution (see src/harness/linkmon.h): synthetic campaign with the same event
// structure.
#include <cstdio>

#include "src/harness/linkmon.h"

int main() {
  std::printf("=== Figure 3: simultaneous link failures vs timeout threshold ===\n");
  std::printf("(17 sites, 90 days, 1 ping/s per link; synthetic campaign, "
              "see src/harness/linkmon.h)\n\n");
  harness::LinkMonOptions opts;
  harness::LinkMonResult result = harness::RunLinkFailureStudy(opts);
  std::printf("%s\n", harness::FormatLinkMonReport(opts, result).c_str());

  std::printf("Paper: timeouts were only ever reported on links incident to a single "
              "site,\nso f <= 1 held during the whole experiment. Reproduced: f <= %u.\n",
              result.f_bound);
  return 0;
}
