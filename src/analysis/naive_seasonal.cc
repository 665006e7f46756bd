#include "analysis/naive_seasonal.h"

#include <stdexcept>

namespace diurnal::analysis {

void naive_decompose(std::span<const double> y, int period, Workspace& ws,
                     std::span<double> trend, std::span<double> seasonal,
                     std::span<double> residual) {
  const int n = static_cast<int>(y.size());
  if (period < 2) throw std::invalid_argument("naive_decompose: period >= 2");
  if (n < 2 * period) {
    throw std::invalid_argument("naive_decompose: need two periods of data");
  }
  std::fill(trend.begin(), trend.end(), 0.0);
  std::fill(seasonal.begin(), seasonal.end(), 0.0);
  std::fill(residual.begin(), residual.end(), 0.0);

  // Centered moving average of window `period` (2x(period/2)-style for
  // even periods: average of two adjacent windows).
  const int half = period / 2;
  auto window_mean = [&](int lo, int len) {
    double s = 0.0;
    for (int i = lo; i < lo + len; ++i) s += y[static_cast<std::size_t>(i)];
    return s / len;
  };
  int first = half, last = n - 1 - half;
  for (int i = first; i <= last; ++i) {
    if (period % 2 == 1) {
      trend[static_cast<std::size_t>(i)] = window_mean(i - half, period);
    } else {
      const double a = window_mean(i - half, period);
      const double b = window_mean(i - half + 1, period);
      trend[static_cast<std::size_t>(i)] = 0.5 * (a + b);
    }
  }
  if (last < first) {  // degenerate; flat trend
    first = 0;
    last = n - 1;
    const double m = window_mean(0, n);
    for (auto& t : trend) t = m;
  } else {
    for (int i = 0; i < first; ++i) {
      trend[static_cast<std::size_t>(i)] = trend[static_cast<std::size_t>(first)];
    }
    for (int i = last + 1; i < n; ++i) {
      trend[static_cast<std::size_t>(i)] = trend[static_cast<std::size_t>(last)];
    }
  }

  // Per-phase means of the detrended series, re-centered to sum to zero.
  // Counts live in a double lease; they hold exact small integers, so
  // the divisions match the int-count arithmetic bit for bit.
  auto phase_sum = ws.acquire_zero(static_cast<std::size_t>(period));
  auto phase_cnt = ws.acquire_zero(static_cast<std::size_t>(period));
  for (int i = 0; i < n; ++i) {
    phase_sum[static_cast<std::size_t>(i % period)] +=
        y[static_cast<std::size_t>(i)] - trend[static_cast<std::size_t>(i)];
    phase_cnt[static_cast<std::size_t>(i % period)] += 1.0;
  }
  double grand = 0.0;
  for (int ph = 0; ph < period; ++ph) {
    if (phase_cnt[static_cast<std::size_t>(ph)] > 0.0) {
      phase_sum[static_cast<std::size_t>(ph)] /= phase_cnt[static_cast<std::size_t>(ph)];
    }
    grand += phase_sum[static_cast<std::size_t>(ph)];
  }
  grand /= period;
  for (int ph = 0; ph < period; ++ph) phase_sum[static_cast<std::size_t>(ph)] -= grand;

  for (int i = 0; i < n; ++i) {
    seasonal[static_cast<std::size_t>(i)] = phase_sum[static_cast<std::size_t>(i % period)];
    residual[static_cast<std::size_t>(i)] =
        y[static_cast<std::size_t>(i)] - trend[static_cast<std::size_t>(i)] -
        seasonal[static_cast<std::size_t>(i)];
  }
}

NaiveDecomposition naive_decompose(std::span<const double> y, int period) {
  NaiveDecomposition out;
  out.trend.assign(y.size(), 0.0);
  out.seasonal.assign(y.size(), 0.0);
  out.residual.assign(y.size(), 0.0);
  Workspace ws;
  naive_decompose(y, period, ws, out.trend, out.seasonal, out.residual);
  return out;
}

}  // namespace diurnal::analysis
