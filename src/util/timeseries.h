// Regularly sampled time series anchored to the simulation timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/date.h"

namespace diurnal::util {

/// Per-UTC-day summary of a series (used by the swing classifier).
struct DayStats {
  std::int64_t day = 0;  ///< day index since the simulation epoch
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int samples = 0;

  double swing() const noexcept { return max - min; }
};

/// A fixed-interval time series: value[i] is the sample covering
/// [start + i*step, start + (i+1)*step).
class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(SimTime start, std::int64_t step_seconds, std::vector<double> values);

  SimTime start() const noexcept { return start_; }
  std::int64_t step() const noexcept { return step_; }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  double operator[](std::size_t i) const noexcept { return values_[i]; }
  double& operator[](std::size_t i) noexcept { return values_[i]; }

  const std::vector<double>& values() const noexcept { return values_; }
  std::vector<double>& values() noexcept { return values_; }
  std::span<const double> span() const noexcept { return values_; }

  /// Timestamp of sample i (start of its interval).
  SimTime time_at(std::size_t i) const noexcept {
    return start_ + static_cast<std::int64_t>(i) * step_;
  }

  /// Timestamp one past the last sample.
  SimTime end_time() const noexcept { return time_at(size()); }

  /// Per-UTC-day min/max/mean; days with no samples are omitted.
  std::vector<DayStats> daily_stats() const;

  double mean() const noexcept;
  double stddev() const noexcept;  ///< population standard deviation
  double max() const noexcept;

  /// Returns a z-score-normalized copy ((x - mean)/stddev); if the
  /// series is constant, returns all zeros.
  TimeSeries zscore() const;

 private:
  SimTime start_ = 0;
  std::int64_t step_ = kRoundSeconds;
  std::vector<double> values_;
};

}  // namespace diurnal::util
