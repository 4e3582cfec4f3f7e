#include "src/sim/regions.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace sim {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kEarthRadiusKm = 6371.0;
// Effective signal speed in fiber ~ 2/3 c ~ 200 km/ms.
constexpr double kKmPerMs = 200.0;
// Baseline great-circle inflation; multiplied by the corridor factor below.
constexpr double kPathInflation = 1.25;
// Per-hop processing/serialization overhead added to each RTT.
constexpr double kBaseOverheadMs = 5.0;

// Extra inflation per continent corridor, calibrated against public GCP inter-region
// RTT measurements. Europe-Asia terrestrial routes detour the most;
// transatlantic and transpacific cables are nearly direct.
double CorridorFactor(Continent a, Continent b) {
  if (a > b) {
    std::swap(a, b);
  }
  using C = Continent;
  if (a == C::kAsia && b == C::kAsia) {
    return 1.15;
  }
  if (a == C::kAsia && b == C::kOceania) {
    return 1.15;
  }
  if (a == C::kAsia && b == C::kEurope) {
    return 1.90;
  }
  if (a == C::kAsia && b == C::kNorthAmerica) {
    return 1.00;
  }
  if (a == C::kAsia && b == C::kSouthAmerica) {
    return 1.35;
  }
  if (a == C::kOceania && b == C::kEurope) {
    return 1.40;
  }
  if (a == C::kOceania && b == C::kNorthAmerica) {
    return 1.00;
  }
  if (a == C::kOceania && b == C::kSouthAmerica) {
    return 1.10;
  }
  if (a == C::kEurope && b == C::kEurope) {
    return 1.70;
  }
  if (a == C::kEurope && b == C::kNorthAmerica) {
    return 1.00;
  }
  if (a == C::kEurope && b == C::kSouthAmerica) {
    return 1.30;
  }
  if (a == C::kNorthAmerica && b == C::kNorthAmerica) {
    return 1.30;
  }
  if (a == C::kNorthAmerica && b == C::kSouthAmerica) {
    return 1.40;
  }
  return 1.30;
}

}  // namespace

const std::vector<Region>& AllRegions() {
  using C = Continent;
  static const std::vector<Region> kRegions = {
      {"asia-east1", "TW", 24.05, 120.52, C::kAsia},       // Changhua County, Taiwan
      {"asia-east2", "HK", 22.32, 114.17, C::kAsia},       // Hong Kong
      {"asia-northeast1", "TY", 35.68, 139.69, C::kAsia},  // Tokyo
      {"asia-south1", "BM", 19.08, 72.88, C::kAsia},       // Mumbai
      {"asia-southeast1", "SG", 1.35, 103.82, C::kAsia},   // Singapore
      {"australia-southeast1", "SY", -33.87, 151.21, C::kOceania},  // Sydney
      {"europe-north1", "FI", 60.57, 27.19, C::kEurope},   // Hamina, Finland
      {"europe-west1", "BE", 50.45, 3.82, C::kEurope},     // St. Ghislain, Belgium
      {"europe-west2", "LN", 51.51, -0.13, C::kEurope},    // London
      {"europe-west3", "FR", 50.11, 8.68, C::kEurope},     // Frankfurt
      {"europe-west4", "NL", 53.43, 6.83, C::kEurope},     // Eemshaven, Netherlands
      {"northamerica-northeast1", "QC", 45.50, -73.57, C::kNorthAmerica},  // Montreal
      {"southamerica-east1", "SP", -23.55, -46.63, C::kSouthAmerica},  // Sao Paulo
      {"us-central1", "IA", 41.26, -95.86, C::kNorthAmerica},  // Council Bluffs, Iowa
      {"us-east1", "SC", 33.20, -80.01, C::kNorthAmerica},     // Moncks Corner, SC
      {"us-east4", "VA", 39.04, -77.49, C::kNorthAmerica},     // Ashburn, Virginia
      {"us-west1", "OR", 45.59, -121.18, C::kNorthAmerica},    // The Dalles, Oregon
  };
  return kRegions;
}

size_t RegionIndexByLabel(const std::string& label) {
  const auto& regions = AllRegions();
  for (size_t i = 0; i < regions.size(); i++) {
    if (label == regions[i].label) {
      return i;
    }
  }
  CHECK(false && "unknown region label");
  return 0;
}

double DistanceKm(const Region& a, const Region& b) {
  double lat1 = a.lat * kPi / 180.0;
  double lat2 = b.lat * kPi / 180.0;
  double dlat = (b.lat - a.lat) * kPi / 180.0;
  double dlon = (b.lon - a.lon) * kPi / 180.0;
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(h));
}

common::Duration ModeledRtt(const Region& a, const Region& b) {
  double rtt_ms = 2.0 * DistanceKm(a, b) / kKmPerMs * kPathInflation *
                      CorridorFactor(a.continent, b.continent) +
                  kBaseOverheadMs;
  return static_cast<common::Duration>(rtt_ms * static_cast<double>(common::kMillisecond));
}

std::vector<std::vector<common::Duration>> OneWayMatrix(
    const std::vector<size_t>& subset) {
  const auto& regions = AllRegions();
  size_t k = subset.size();
  std::vector<std::vector<common::Duration>> m(k, std::vector<common::Duration>(k, 0));
  for (size_t i = 0; i < k; i++) {
    for (size_t j = 0; j < k; j++) {
      if (i == j) {
        continue;
      }
      m[i][j] = ModeledRtt(regions[subset[i]], regions[subset[j]]) / 2;
    }
  }
  return m;
}

std::vector<size_t> ScaleOutSites(size_t k) {
  // Grows coverage so that the optimal leaderless latency improves monotonically with
  // every step (the paper's "bring the service closer to clients" narrative): EU + NA
  // + Asia core first, then densify, then the geographic extremes.
  static const char* kOrder[] = {"BE", "SC", "TW", "FI", "IA", "TY", "SP",
                                 "LN", "QC", "SY", "BM", "FR", "SG"};
  CHECK_LE(k, sizeof(kOrder) / sizeof(kOrder[0]));
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; i++) {
    out.push_back(RegionIndexByLabel(kOrder[i]));
  }
  return out;
}

std::vector<size_t> ClientSites() { return ScaleOutSites(13); }

std::vector<size_t> ThreeSites() {
  return {RegionIndexByLabel("TW"), RegionIndexByLabel("FI"), RegionIndexByLabel("SC")};
}

std::vector<size_t> AllSiteIndexes() {
  std::vector<size_t> out;
  for (size_t i = 0; i < AllRegions().size(); i++) {
    out.push_back(i);
  }
  return out;
}

}  // namespace sim
