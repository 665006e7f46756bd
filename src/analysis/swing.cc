#include "analysis/swing.h"

#include <algorithm>

namespace diurnal::analysis {

SwingResult classify_swing(std::span<const double> values, util::SimTime start,
                           std::int64_t step, const SwingOptions& opt,
                           Workspace& ws) {
  SwingResult r;
  const std::size_t n = values.size();
  if (n == 0) return r;

  // Same day-run decomposition as TimeSeries::daily_stats(), computed
  // inline: sample i covers time start + i*step, runs are contiguous
  // because time is monotone.  The dense wide-day axis lives in a lease
  // holding exact 0/1 values.
  const std::int64_t first =
      util::day_index(start);
  const std::int64_t last = util::day_index(
      start + static_cast<util::SimTime>(n - 1) * step);
  const std::size_t span = static_cast<std::size_t>(last - first + 1);
  auto wide_day = ws.acquire_zero(span);

  std::size_t i = 0;
  while (i < n) {
    const std::int64_t day =
        util::day_index(start + static_cast<util::SimTime>(i) * step);
    double mn = values[i];
    double mx = values[i];
    while (i < n &&
           util::day_index(start + static_cast<util::SimTime>(i) * step) == day) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
      ++i;
    }
    ++r.total_days;
    const double swing = mx - mn;
    r.max_daily_swing = std::max(r.max_daily_swing, swing);
    if (swing >= opt.min_swing) {
      wide_day[static_cast<std::size_t>(day - first)] = 1.0;
      ++r.wide_days;
    }
  }

  const std::size_t w = static_cast<std::size_t>(std::max(opt.window_days, 1));
  int in_window = 0;
  for (std::size_t k = 0; k < span; ++k) {
    in_window += static_cast<int>(wide_day[k]);
    if (k >= w) in_window -= static_cast<int>(wide_day[k - w]);
    r.best_window_wide = std::max(r.best_window_wide, in_window);
  }
  r.wide = r.best_window_wide >= opt.min_wide_days;
  return r;
}

}  // namespace diurnal::analysis
