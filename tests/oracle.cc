#include "oracle.h"

#include <algorithm>

namespace diurnal::oracle {

void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const core::DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<core::DetectedChange>& changes) {
  changes.clear();
  const int period = core::detection_period(counts.size(), step, opt);
  if (period == 0) return;

  const auto dec =
      az.decompose_stl(counts, core::detector_stl_options(opt, period));
  const auto z = az.zscore(dec.trend);
  const auto cus = az.cusum(z, opt.cusum);
  core::extract_changes(counts, start, step, period, opt, cus.changes,
                        dec.trend, az.workspace(), changes);
}

analysis::SwingResult classify_swing(const std::vector<util::DayStats>& days,
                                     const analysis::SwingOptions& opt) {
  analysis::SwingResult r;
  if (days.empty()) return r;
  r.total_days = static_cast<int>(days.size());

  // Mark wide days on a dense day-index axis so "consecutive" windows are
  // calendar windows even if some days lack samples.
  const std::int64_t first = days.front().day;
  const std::int64_t last = days.back().day;
  const std::size_t span = static_cast<std::size_t>(last - first + 1);
  std::vector<char> wide_day(span, 0);
  for (const auto& d : days) {
    r.max_daily_swing = std::max(r.max_daily_swing, d.swing());
    if (d.swing() >= opt.min_swing) {
      wide_day[static_cast<std::size_t>(d.day - first)] = 1;
      ++r.wide_days;
    }
  }

  const std::size_t w = static_cast<std::size_t>(std::max(opt.window_days, 1));
  int in_window = 0;
  for (std::size_t i = 0; i < span; ++i) {
    in_window += wide_day[i];
    if (i >= w) in_window -= wide_day[i - w];
    r.best_window_wide = std::max(r.best_window_wide, in_window);
  }
  r.wide = r.best_window_wide >= opt.min_wide_days;
  return r;
}

}  // namespace diurnal::oracle
