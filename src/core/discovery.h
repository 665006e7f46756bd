// Event discovery from aggregated change detections (the paper's
// section-4 workflow, automated): scan every gridcell's daily series of
// downward changes for days whose count spikes far above that cell's
// own baseline, and merge consecutive spike days into one event.  This
// is how the paper surfaced the Delhi riots, the Indiana WFH onset, and
// the 2023 Spring Festival without prior knowledge.
#pragma once

#include <string>
#include <vector>

#include "analysis/workspace.h"
#include "core/aggregate.h"

namespace diurnal::core {

/// Minimum change-sensitive blocks for a cell to be considered (the
/// paper's representation threshold).
inline constexpr int kDiscoveryMinBlocks = 5;
/// Detections of one regional event spread over several days (blocks
/// adopt orders at different dates, and trend smoothing jitters the
/// alarm), so spikes are evaluated on a sliding window of this many
/// days.
inline constexpr int kDiscoveryWindowDays = 5;
/// A spike window must involve at least this fraction of the cell's
/// change-sensitive blocks...
inline constexpr double kDiscoveryMinFraction = 0.05;
/// ...and at least this many blocks...
inline constexpr int kDiscoveryMinCount = 2;
/// ...and exceed this many times the cell's 75th-percentile windowed
/// down-count.
inline constexpr double kDiscoverySpikeFactor = 3.0;

/// One discovered regional event.
struct DiscoveredEvent {
  geo::GridCell cell{};
  util::SimTime start = 0;  ///< first day of the first spiking window
  util::SimTime end = 0;    ///< one past the last day of the last window
  int peak_blocks = 0;      ///< most blocks down within one window
  double peak_fraction = 0.0;
  int cell_blocks = 0;      ///< change-sensitive blocks in the cell

  std::string to_string() const;
};

/// Scans the aggregation for regional events, ordered by descending
/// peak fraction, then by cell (latitude, then longitude index), then
/// by start: one order whatever order the cells were aggregated in.
std::vector<DiscoveredEvent> discover_events(const ChangeAggregator& agg);

/// Same scan with the per-cell sliding-window scratch leased from `ws`
/// (bit-identical results; repeated scans allocate only for the events
/// themselves).
std::vector<DiscoveredEvent> discover_events(const ChangeAggregator& agg,
                                             analysis::Workspace& ws);

}  // namespace diurnal::core
