// The WAN model: 17 Google Cloud Platform regions (the maximum available at the time of
// the paper's measurement study, §5.1) with their physical coordinates.
//
// Substitution note: the paper measured RTTs on GCP itself. We derive
// RTTs from great-circle distances with a fiber-path inflation factor and a base
// processing cost, the standard first-order model for WAN latency; this preserves the
// latency *geometry* (relative distances, closest-quorum structure) that Atlas's
// evaluation depends on.
#ifndef SRC_SIM_REGIONS_H_
#define SRC_SIM_REGIONS_H_

#include <string>
#include <vector>

#include "src/common/types.h"

namespace sim {

enum class Continent : uint8_t { kAsia, kOceania, kEurope, kNorthAmerica, kSouthAmerica };

struct Region {
  const char* name;   // GCP region id
  const char* label;  // short label used in the paper (e.g. "TW", "FI", "SC")
  double lat;
  double lon;
  Continent continent;
};

// All 17 regions. Indexes into this table are stable identifiers.
const std::vector<Region>& AllRegions();

// Region table index by short label ("TW"); aborts if unknown.
size_t RegionIndexByLabel(const std::string& label);

// Great-circle distance in kilometers.
double DistanceKm(const Region& a, const Region& b);

// Modeled round-trip time between two regions (microseconds):
//   RTT = 2 * distance / (0.66 c) * path_inflation(corridor) + base_overhead,
// where the inflation factor depends on the continent pair (real fiber routes between
// some continents detour heavily, e.g. Europe-Asia). Calibrated against published GCP
// inter-region RTTs to within ~10%.
common::Duration ModeledRtt(const Region& a, const Region& b);

// One-way latency matrix (RTT/2) for the given subset of regions (indexes into
// AllRegions()); entry [i][j] is the one-way delay between subset[i] and subset[j].
std::vector<std::vector<common::Duration>> OneWayMatrix(const std::vector<size_t>& subset);

// The paper's deployments:
//  - ScaleOutSites(k) for k in {3,5,7,9,11,13}: the first k sites of the scale-out
//    order used by Figures 5 and 6 (grows coverage continent by continent).
//  - ClientSites(): the 13 client locations (fixed across all scale-out steps).
//  - ThreeSites(): {TW, FI, SC} used by Figure 8.
std::vector<size_t> ScaleOutSites(size_t k);
std::vector<size_t> ClientSites();
std::vector<size_t> ThreeSites();

// All 17 region indexes (Figure 3's ping mesh).
std::vector<size_t> AllSiteIndexes();

}  // namespace sim

#endif  // SRC_SIM_REGIONS_H_
