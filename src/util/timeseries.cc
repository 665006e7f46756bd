#include "util/timeseries.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace diurnal::util {

TimeSeries::TimeSeries(SimTime start, std::int64_t step_seconds,
                       std::vector<double> values)
    : start_(start), step_(step_seconds), values_(std::move(values)) {
  if (step_ <= 0) throw std::invalid_argument("TimeSeries: step must be > 0");
}

std::vector<DayStats> TimeSeries::daily_stats() const {
  std::vector<DayStats> out;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const std::int64_t day = day_index(time_at(i));
    if (out.empty() || out.back().day != day) {
      out.push_back(DayStats{day, values_[i], values_[i], 0.0, 0});
    }
    DayStats& d = out.back();
    d.min = std::min(d.min, values_[i]);
    d.max = std::max(d.max, values_[i]);
    d.mean += values_[i];
    ++d.samples;
  }
  for (auto& d : out) {
    if (d.samples > 0) d.mean /= d.samples;
  }
  return out;
}

double TimeSeries::mean() const noexcept {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double TimeSeries::stddev() const noexcept {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double ss = 0.0;
  for (const double v : values_) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values_.size()));
}

double TimeSeries::max() const noexcept {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

TimeSeries TimeSeries::zscore() const {
  const double m = mean();
  const double sd = stddev();
  std::vector<double> out(values_.size());
  // Guard against numerically constant series: dividing floating-point
  // dust by a ~1e-13 deviation manufactures spurious z-scores large
  // enough to trip CUSUM, so treat them as exactly constant.
  if (sd <= 1e-9 * std::max(1.0, std::abs(m))) {
    return TimeSeries(start_, step_, std::move(out));
  }
  for (std::size_t i = 0; i < values_.size(); ++i) {
    out[i] = (values_[i] - m) / sd;
  }
  return TimeSeries(start_, step_, std::move(out));
}

}  // namespace diurnal::util
