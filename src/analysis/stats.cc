#include "analysis/stats.h"

#include <algorithm>
#include <cmath>

namespace diurnal::analysis {

double mean(std::span<const double> x) noexcept {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (const double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) noexcept {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double ss = 0.0;
  for (const double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) noexcept { return std::sqrt(variance(x)); }

double median(std::span<const double> x) { return quantile(x, 0.5); }

double median(std::span<const double> x, Workspace& ws) {
  return quantile(x, 0.5, ws);
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> x, double q) {
  if (x.empty()) return 0.0;
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double quantile(std::span<const double> x, double q, Workspace& ws) {
  if (x.empty()) return 0.0;
  auto v = ws.acquire(x.size());
  std::copy(x.begin(), x.end(), v.data());
  std::sort(v.data(), v.data() + v.size());
  return quantile_sorted(v.span(), q);
}

double pearson(std::span<const double> x, std::span<const double> y) noexcept {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ecdf_at(std::span<const double> x,
                            std::span<const double> thresholds) {
  std::vector<double> out(thresholds.size());
  Workspace ws;
  ecdf_at(x, thresholds, out, ws);
  return out;
}

void ecdf_at(std::span<const double> x, std::span<const double> thresholds,
             std::span<double> out, Workspace& ws) {
  auto sorted = ws.acquire(x.size());
  std::copy(x.begin(), x.end(), sorted.data());
  std::sort(sorted.data(), sorted.data() + sorted.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const double t = thresholds[i];
    const auto* it =
        std::upper_bound(sorted.data(), sorted.data() + sorted.size(), t);
    out[i] = x.empty() ? 0.0
                       : static_cast<double>(it - sorted.data()) /
                             static_cast<double>(x.size());
  }
}

}  // namespace diurnal::analysis
