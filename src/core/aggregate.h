// Geographic aggregation of detected changes (paper section 2.6 and the
// maps/series of Figures 7-10): per 2x2-degree gridcell and per
// continent, count blocks whose trend turns down (or up) each day.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/detect.h"
#include "geo/countries.h"
#include "geo/gridcell.h"
#include "util/state_io.h"

namespace diurnal::core {

/// Daily up/down change counts for one region.
struct RegionDaySeries {
  std::vector<std::int32_t> down;  ///< per day since the aggregation start
  std::vector<std::int32_t> up;
  std::int32_t change_sensitive_blocks = 0;

  double down_fraction(std::size_t day) const noexcept {
    return change_sensitive_blocks == 0
               ? 0.0
               : static_cast<double>(down[day]) / change_sensitive_blocks;
  }
  double up_fraction(std::size_t day) const noexcept {
    return change_sensitive_blocks == 0
               ? 0.0
               : static_cast<double>(up[day]) / change_sensitive_blocks;
  }
};

/// Accumulates per-block detections into per-gridcell and per-continent
/// daily series.
class ChangeAggregator {
 public:
  /// Empty zero-day aggregator (a merge/assignment target).
  ChangeAggregator() : ChangeAggregator(0, 0) {}
  ChangeAggregator(util::SimTime start, util::SimTime end);

  /// Registers a change-sensitive block and its (outage-filtered)
  /// activity changes.  The day of a change is the day of its alarm.
  void add_block(geo::GridCell cell, geo::Continent continent,
                 const std::vector<DetectedChange>& changes);

  /// Folds another aggregator over the same window into this one (the
  /// shard-merge path).  Daily counts are integer sums, so any merge
  /// order produces identical series; `other` must share this window.
  void merge_from(const ChangeAggregator& other);

  util::SimTime start() const noexcept { return start_; }
  std::size_t days() const noexcept { return days_; }

  /// Day index for a time (clamped to the window).
  std::size_t day_of(util::SimTime t) const noexcept;

  const std::unordered_map<geo::GridCell, RegionDaySeries>& by_cell() const noexcept {
    return by_cell_;
  }
  const std::array<RegionDaySeries, 6>& by_continent() const noexcept {
    return by_continent_;
  }
  const RegionDaySeries& continent(geo::Continent c) const noexcept {
    return by_continent_[static_cast<std::size_t>(c)];
  }

  /// Serializes the window plus every gridcell/continent day series.
  /// restore() overwrites this aggregator completely (any window), so a
  /// default-constructed instance is a valid target.  A restored
  /// aggregator merge_from()s and is merged exactly like the original —
  /// the shard checkpoint files rely on this.
  void save(util::StateWriter& w) const;
  void restore(util::StateReader& r);

  /// Gridcells with at least `min_blocks` change-sensitive blocks,
  /// ordered by descending block count, ties by cell (for the Figure
  /// 7/9/10 maps).
  struct CellSnapshot {
    geo::GridCell cell;
    std::int32_t blocks = 0;
    std::int32_t down_on_day = 0;
    double down_fraction = 0.0;
  };
  std::vector<CellSnapshot> map_snapshot(util::SimTime day,
                                         std::int32_t min_blocks = 5) const;

 private:
  template <class Self, class IO>
  static void fields(Self& self, IO& io);  // the layout, in wire order

  util::SimTime start_;
  std::size_t days_;
  std::unordered_map<geo::GridCell, RegionDaySeries> by_cell_;
  std::array<RegionDaySeries, 6> by_continent_{};
};

}  // namespace diurnal::core
