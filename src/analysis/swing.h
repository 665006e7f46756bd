// Daily-swing classification (paper section 2.4).
//
// The daily swing is the max-minus-min of the active-address count over
// each midnight-to-midnight UTC day.  A day is "wide" when the swing is
// at least `min_swing` addresses (paper: 5, tolerating a few uncorrelated
// machine restarts); a block has a *persistent* wide swing when some
// 7-consecutive-day window contains at least 4 wide days (tolerating
// weekends and 3-day holiday weekends).
#pragma once

#include <span>

#include "analysis/workspace.h"
#include "util/date.h"

namespace diurnal::analysis {

struct SwingOptions {
  double min_swing = 5.0;    ///< addresses/day for a "wide" day
  int window_days = 7;       ///< work-week window
  int min_wide_days = 4;     ///< wide days required within the window
};

struct SwingResult {
  bool wide = false;          ///< persistent wide swing present
  int wide_days = 0;          ///< total days with a wide swing
  int total_days = 0;         ///< days with data
  double max_daily_swing = 0; ///< largest single-day swing
  int best_window_wide = 0;   ///< most wide days in any window
};

/// Classifies the swing of an active-address series: value[i] covers
/// [start + i*step, start + (i+1)*step).  The per-day stats and the
/// dense wide-day axis are computed inline with scratch leased from
/// `ws`, so a warm workspace runs allocation-free.
SwingResult classify_swing(std::span<const double> values, util::SimTime start,
                           std::int64_t step, const SwingOptions& opt,
                           Workspace& ws);

}  // namespace diurnal::analysis
