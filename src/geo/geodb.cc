#include "geo/geodb.h"

#include <algorithm>

#include "util/rng.h"

namespace diurnal::geo {

void GeoDatabase::add(net::BlockId block, GeoRecord record) {
  records_[block] = record;
}

std::optional<GeoRecord> GeoDatabase::lookup(net::BlockId block) const {
  const auto it = records_.find(block);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

GeoDatabase GeoDatabase::perturbed(double stddev_degrees,
                                   std::uint64_t seed) const {
  GeoDatabase out;
  for (const auto& [block, rec] : records_) {
    util::Xoshiro256 rng(util::derive_seed(seed, block.id()));
    GeoRecord r = rec;
    r.lat = std::clamp(r.lat + rng.normal(0.0, stddev_degrees), -89.9, 89.9);
    r.lon += rng.normal(0.0, stddev_degrees);
    out.add(block, r);
  }
  return out;
}

}  // namespace diurnal::geo
