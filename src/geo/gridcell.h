// 2x2-degree geographic gridcells (paper section 2.6): aggregation unit
// chosen so city-level geolocation error does not matter.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace diurnal::geo {

/// A 2x2-degree latitude/longitude cell.  `lat_idx`/`lon_idx` are the
/// floor(coord/2) indices; the cell covers [2*idx, 2*idx + 2).
struct GridCell {
  std::int16_t lat_idx = 0;  ///< [-45, 44]  (latitude / 2)
  std::int16_t lon_idx = 0;  ///< [-90, 89]  (longitude / 2)

  /// Cell containing a coordinate (latitude in [-90,90], longitude
  /// normalized into [-180,180)).
  static GridCell of(double latitude, double longitude) noexcept;

  /// South-west corner of the cell in degrees.
  double lat() const noexcept { return 2.0 * lat_idx; }
  double lon() const noexcept { return 2.0 * lon_idx; }

  /// Latitude of the cell's center.
  double center_lat() const noexcept { return lat() + 1.0; }

  /// Paper-style label, e.g. "(30N,114E)".
  std::string to_string() const;

  friend bool operator==(const GridCell&, const GridCell&) = default;
  friend auto operator<=>(const GridCell&, const GridCell&) = default;
};

}  // namespace diurnal::geo

template <>
struct std::hash<diurnal::geo::GridCell> {
  std::size_t operator()(const diurnal::geo::GridCell& c) const noexcept {
    return std::hash<std::uint32_t>{}(
        (static_cast<std::uint32_t>(static_cast<std::uint16_t>(c.lat_idx)) << 16) |
        static_cast<std::uint16_t>(c.lon_idx));
  }
};
