// The scalar reference bodies the bitwise tests hold production to.
// The engine runs the batched tier (core::BatchDetector,
// core::classify_blocks_batch); these are the same rules run one block
// at a time through the span kernels (analysis::BlockAnalyzer), or, for
// the swing rule, over precomputed per-day stats.  Test-only: nothing
// under src/ calls them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/block_analyzer.h"
#include "analysis/swing.h"
#include "core/detect.h"
#include "util/timeseries.h"

namespace diurnal::oracle {

/// The detection stage (STL trend -> z-score -> CUSUM -> change
/// extraction and outage filters) on one series through the scalar
/// analyzer.  `changes` is cleared and refilled; series the detector
/// rejects (core::detection_period() == 0) yield none.
void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const core::DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<core::DetectedChange>& changes);

/// The 4-of-7 wide-day rule over per-day stats.  Days without samples
/// may be absent: windows are calendar windows on a dense day axis.
analysis::SwingResult classify_swing(const std::vector<util::DayStats>& days,
                                     const analysis::SwingOptions& opt = {});

}  // namespace diurnal::oracle
