// Block geolocation database (the paper uses Maxmind GeoLite; we build
// the equivalent lookup from the synthetic world, optionally perturbed to
// model city-level geolocation error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "geo/countries.h"
#include "geo/gridcell.h"
#include "net/ipv4.h"

namespace diurnal::geo {

/// One geolocation record.
struct GeoRecord {
  double lat = 0.0;
  double lon = 0.0;
  std::uint16_t country = 0;  ///< index into countries()

  GridCell cell() const noexcept { return GridCell::of(lat, lon); }
  Continent continent() const { return countries()[country].continent; }
};

/// Maps /24 blocks to locations.  Built once by the world generator
/// (optionally with noise via `perturbed`) and then read-only.
class GeoDatabase {
 public:
  void add(net::BlockId block, GeoRecord record);

  /// Lookup; nullopt for unknown blocks (the paper discards blocks that
  /// fail to geolocate; all sampled blocks in section 3.6 geolocated).
  std::optional<GeoRecord> lookup(net::BlockId block) const;

  std::size_t size() const noexcept { return records_.size(); }

  /// A copy with Gaussian location noise (degrees of standard deviation)
  /// applied, modeling Maxmind's city-level inaccuracy; deterministic in
  /// `seed`.
  GeoDatabase perturbed(double stddev_degrees, std::uint64_t seed) const;

  const std::unordered_map<net::BlockId, GeoRecord>& records() const noexcept {
    return records_;
  }

 private:
  std::unordered_map<net::BlockId, GeoRecord> records_;
};

}  // namespace diurnal::geo
