#include "analysis/stl.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/loess.h"
#include "analysis/stats.h"

namespace diurnal::analysis {

namespace {

int next_odd(int v) noexcept { return (v % 2 == 0) ? v + 1 : v; }

// Moving average of window m; writes in.size() - m + 1 values into out.
void moving_average(std::span<const double> in, int m, std::span<double> out) {
  if (static_cast<int>(in.size()) < m || m <= 0) return;
  double sum = 0.0;
  for (int i = 0; i < m; ++i) sum += in[static_cast<std::size_t>(i)];
  out[0] = sum / m;
  const std::size_t count = in.size() - static_cast<std::size_t>(m) + 1;
  for (std::size_t i = 1; i < count; ++i) {
    sum += in[i + static_cast<std::size_t>(m) - 1] - in[i - 1];
    out[i] = sum / m;
  }
}

}  // namespace

int default_trend_span(int period) noexcept {
  const double denom = 1.0 - 1.5 / static_cast<double>(kSeasonalSpan);
  const int v = static_cast<int>(std::ceil(1.5 * period / denom));
  return next_odd(std::max(v, 3));
}

StlPlan stl_plan(int period, int trend_span) noexcept {
  const int n_t =
      trend_span > 0 ? next_odd(trend_span) : default_trend_span(period);
  const int n_l = next_odd(period);
  return StlPlan{{kSeasonalSpan, 1},
                 {n_t, std::max(1, n_t / 10)},
                 {n_l, std::max(1, n_l / 10)}};
}

void stl_decompose(std::span<const double> y, const StlOptions& opt,
                   Workspace& ws, std::span<double> trend,
                   std::span<double> seasonal, std::span<double> residual,
                   std::span<double> robustness_out) {
  const int n = static_cast<int>(y.size());
  const int p = opt.period;
  if (p < 2) throw std::invalid_argument("stl_decompose: period must be >= 2");
  if (n < 2 * p) {
    throw std::invalid_argument("stl_decompose: need at least two periods of data");
  }
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t up = static_cast<std::size_t>(p);

  const StlPlan plan = stl_plan(p, opt.trend_span);

  std::fill(trend.begin(), trend.end(), 0.0);
  std::fill(seasonal.begin(), seasonal.end(), 0.0);
  std::fill(residual.begin(), residual.end(), 0.0);

  // Scratch, all leased: the longest cycle subseries has ceil(n/p)
  // points, and the moving-average cascade shrinks n+2p -> n+p+1 ->
  // n+2 -> n.  A warm workspace serves every outer/inner iteration
  // (and every subsequent block) without touching the heap.
  const std::size_t sub_cap = (un + up - 1) / up;
  auto detrended = ws.acquire(un);
  auto extended = ws.acquire(un + 2 * up);  // cycle-subseries output
  auto deseason = ws.acquire(un);
  auto sub = ws.acquire(sub_cap);
  auto sub_rho = ws.acquire(sub_cap);
  auto sub_smooth = ws.acquire(sub_cap + 2);
  auto ma1 = ws.acquire(un + up + 1);
  auto ma2 = ws.acquire(un + 2);
  auto ma3 = ws.acquire(un);
  auto lowpass = ws.acquire(un);
  auto rho = ws.acquire(un);  // robustness weights
  bool have_rho = false;      // "empty" until outer pass 2

  const int outer_passes = std::max(opt.outer_iterations, 0) + 1;
  for (int outer = 0; outer < outer_passes; ++outer) {
    const std::span<const double> rho_span =
        have_rho ? std::span<const double>(rho.data(), un)
                 : std::span<const double>{};
    for (int inner = 0; inner < kInnerIterations; ++inner) {
      // Step 1: detrend.
      for (std::size_t i = 0; i < un; ++i) detrended[i] = y[i] - trend[i];
      // Step 2: cycle-subseries smoothing, extended one period each way.
      std::fill_n(extended.data(), un + 2 * up, 0.0);
      for (std::size_t phase = 0; phase < up; ++phase) {
        std::size_t len = 0;
        for (std::size_t i = phase; i < un; i += up) {
          sub[len] = detrended[i];
          if (have_rho) sub_rho[len] = rho[i];
          ++len;
        }
        if (len == 0) continue;
        const std::span<const double> srho =
            have_rho ? std::span<const double>(sub_rho.data(), len)
                     : std::span<const double>{};
        loess_smooth_extended(std::span<const double>(sub.data(), len),
                              plan.seasonal, srho,
                              std::span<double>(sub_smooth.data(), len + 2));
        // sub_smooth[k] corresponds to subseries position k-1, i.e. full
        // series index phase + (k-1)*p; with the +p shift of `extended`
        // that lands at extended[phase + k*p].
        for (std::size_t k = 0; k < len + 2; ++k) {
          const std::size_t idx = phase + k * up;
          if (idx < un + 2 * up) extended[idx] = sub_smooth[k];
        }
      }
      // Step 3: low-pass filter of the extended seasonal: MA(p), MA(p),
      // MA(3), then LOESS(n_l).  Output length: n.
      moving_average(std::span<const double>(extended.data(), un + 2 * up), p,
                     std::span<double>(ma1.data(), un + up + 1));
      moving_average(std::span<const double>(ma1.data(), un + up + 1), p,
                     std::span<double>(ma2.data(), un + 2));
      moving_average(std::span<const double>(ma2.data(), un + 2), 3,
                     std::span<double>(ma3.data(), un));
      loess_smooth(std::span<const double>(ma3.data(), un), plan.lowpass, {},
                   std::span<double>(lowpass.data(), un));
      // Step 4: seasonal = extended(middle) - lowpass.
      for (std::size_t i = 0; i < un; ++i) {
        seasonal[i] = extended[i + up] - lowpass[i];
      }
      // Step 5: deseasonalize.
      for (std::size_t i = 0; i < un; ++i) deseason[i] = y[i] - seasonal[i];
      // Step 6: trend smoothing (loess writes every position of `trend`).
      loess_smooth(std::span<const double>(deseason.data(), un), plan.trend,
                   rho_span, trend);
    }
    // Residuals and (for all but the last pass) robustness weights.
    for (std::size_t i = 0; i < un; ++i) {
      residual[i] = y[i] - trend[i] - seasonal[i];
    }
    if (outer + 1 < outer_passes) {
      auto abs_r = ws.acquire(un);
      for (std::size_t i = 0; i < un; ++i) abs_r[i] = std::abs(residual[i]);
      const double h = 6.0 * median(abs_r.span(), ws);
      std::fill_n(rho.data(), un, 1.0);
      have_rho = true;
      if (h > 0.0) {
        for (std::size_t i = 0; i < un; ++i) {
          const double u = abs_r[i] / h;
          if (u >= 1.0) {
            rho[i] = 0.0;
          } else {
            const double t = 1.0 - u * u;
            rho[i] = t * t;  // bisquare
          }
        }
      }
    }
  }
  if (!robustness_out.empty() && have_rho) {
    std::copy_n(rho.data(), un, robustness_out.begin());
  }
}

StlDecomposition stl_decompose(std::span<const double> y, const StlOptions& opt) {
  StlDecomposition out;
  out.trend.assign(y.size(), 0.0);
  out.seasonal.assign(y.size(), 0.0);
  out.residual.assign(y.size(), 0.0);
  if (opt.outer_iterations > 0) out.robustness.assign(y.size(), 0.0);
  Workspace ws;
  stl_decompose(y, opt, ws, out.trend, out.seasonal, out.residual,
                out.robustness);
  return out;
}

}  // namespace diurnal::analysis
