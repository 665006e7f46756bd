#include "analysis/loess.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace diurnal::analysis {

LoessWindow loess_window(int n, double x0, const LoessOptions& opt) noexcept {
  const int q = std::max(2, opt.span);
  const int window = std::min(q, n);

  // Choose the contiguous window of `window` points nearest x0.
  int lo = static_cast<int>(std::floor(x0)) - (window - 1) / 2;
  lo = std::clamp(lo, 0, n - window);
  // Slide to minimize the maximum distance to x0.
  while (lo > 0 && (x0 - (lo - 1)) < ((lo + window - 1) - x0)) --lo;
  while (lo + window < n && ((lo + window) - x0) < (x0 - lo)) ++lo;
  const int hi = lo + window - 1;

  double h = std::max(x0 - lo, static_cast<double>(hi) - x0);
  if (q > n) {
    // Cleveland's rule: widen the bandwidth when the span exceeds the data.
    h *= static_cast<double>(q) / static_cast<double>(n);
  }
  if (h <= 0.0) h = 1.0;
  return LoessWindow{lo, window, h};
}

double loess_at(std::span<const double> y, double x0, const LoessOptions& opt,
                std::span<const double> robustness) {
  const int n = static_cast<int>(y.size());
  if (n == 0) return 0.0;
  if (n == 1) return y[0];
  const LoessWindow win = loess_window(n, x0, opt);
  const int lo = win.lo;
  const int window = win.window;
  const int hi = lo + window - 1;
  const double h = win.h;

  double sw = 0.0, swx = 0.0, swy = 0.0, swxx = 0.0, swxy = 0.0;
  for (int i = lo; i <= hi; ++i) {
    double w = tricube_weight((static_cast<double>(i) - x0) / h);
    if (!robustness.empty()) w *= robustness[static_cast<std::size_t>(i)];
    if (w <= 0.0) continue;
    const double xi = static_cast<double>(i);
    sw += w;
    swx += w * xi;
    swy += w * y[static_cast<std::size_t>(i)];
    swxx += w * xi * xi;
    swxy += w * xi * y[static_cast<std::size_t>(i)];
  }
  if (sw <= 0.0) {
    // All weights vanished (e.g. robustness zeroed the window): fall back
    // to the unweighted window mean.
    double s = 0.0;
    for (int i = lo; i <= hi; ++i) s += y[static_cast<std::size_t>(i)];
    return s / static_cast<double>(window);
  }
  const double mean_y = swy / sw;
  const double mean_x = swx / sw;
  const double var_x = swxx / sw - mean_x * mean_x;
  if (var_x <= 1e-12) return mean_y;
  const double cov_xy = swxy / sw - mean_x * mean_y;
  const double slope = cov_xy / var_x;
  return mean_y + slope * (x0 - mean_x);
}

namespace {

// Evaluates loess at positions first..last (inclusive, integer steps of
// `jump`) and linearly interpolates the gaps; indexes into `out` are
// offset by `out_offset` (position p lands at out[p + out_offset]).
void smooth_range(std::span<const double> y, const LoessOptions& opt,
                  std::span<const double> robustness, int first, int last,
                  std::span<double> out, int out_offset) {
  const int jump = std::max(1, opt.jump);
  int prev_pos = first;
  double prev_val = loess_at(y, first, opt, robustness);
  out[static_cast<std::size_t>(first + out_offset)] = prev_val;
  for (int p = first + jump; p <= last + jump - 1; p += jump) {
    const int pos = std::min(p, last);
    const double val = loess_at(y, pos, opt, robustness);
    out[static_cast<std::size_t>(pos + out_offset)] = val;
    for (int q = prev_pos + 1; q < pos; ++q) {
      const double frac = static_cast<double>(q - prev_pos) /
                          static_cast<double>(pos - prev_pos);
      out[static_cast<std::size_t>(q + out_offset)] =
          prev_val + frac * (val - prev_val);
    }
    prev_pos = pos;
    prev_val = val;
    if (pos == last) break;
  }
  if (prev_pos != last) {
    // Single-point range or jump landed exactly; ensure last is set.
    out[static_cast<std::size_t>(last + out_offset)] =
        loess_at(y, last, opt, robustness);
  }
}

}  // namespace

std::vector<double> loess_smooth(std::span<const double> y,
                                 const LoessOptions& opt,
                                 std::span<const double> robustness) {
  std::vector<double> out(y.size(), 0.0);
  loess_smooth(y, opt, robustness, out);
  return out;
}

void loess_smooth(std::span<const double> y, const LoessOptions& opt,
                  std::span<const double> robustness, std::span<double> out) {
  const int n = static_cast<int>(y.size());
  if (n == 0) return;
  smooth_range(y, opt, robustness, 0, n - 1, out, 0);
}

void loess_smooth_extended(std::span<const double> y, const LoessOptions& opt,
                           std::span<const double> robustness,
                           std::span<double> out) {
  const int n = static_cast<int>(y.size());
  if (n == 0) return;
  out[0] = loess_at(y, -1.0, opt, robustness);
  smooth_range(y, opt, robustness, 0, n - 1, out, 1);
  out[static_cast<std::size_t>(n) + 1] =
      loess_at(y, static_cast<double>(n), opt, robustness);
}

}  // namespace diurnal::analysis
