#include "analysis/diurnal_test.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/fft.h"
#include "analysis/stats.h"

namespace diurnal::analysis {

namespace {

// Diurnal-band power ratio of a mean-removed window.
double band_ratio(std::span<const double> values, double samples_per_day,
                  double* total_out, double* band_out, Workspace& ws) {
  const std::size_t n = values.size();
  const double m = mean(values);
  auto lease = ws.acquire(n);
  const std::span<double> x = lease.span();
  for (std::size_t i = 0; i < n; ++i) x[i] = values[i] - m;

  double total = 0.0;
  for (const double v : x) total += v * v;
  const double total_power = static_cast<double>(n) * total;
  if (total_out != nullptr) *total_out = total_power;
  if (band_out != nullptr) *band_out = 0.0;
  if (total_power <= 0.0) return 0.0;

  const double daily_cycles = static_cast<double>(n) / samples_per_day;
  double band = 0.0;
  for (int h = 1; h <= kDiurnalHarmonics; ++h) {
    const double c = daily_cycles * h;
    if (c >= static_cast<double>(n) / 2.0) break;  // beyond Nyquist
    band += goertzel_power(x, c);
    if (c > 1.5) {
      band += goertzel_power(x, c - 1.0);
      band += goertzel_power(x, c + 1.0);
    }
  }
  // Positive and negative frequency halves carry equal power.
  if (band_out != nullptr) *band_out = 2.0 * band;
  return std::min(1.0, 2.0 * band / total_power);
}

}  // namespace

DiurnalResult test_diurnal(std::span<const double> values,
                           double samples_per_day) {
  Workspace ws;
  return test_diurnal(values, samples_per_day, ws);
}

DiurnalResult test_diurnal(std::span<const double> values,
                           double samples_per_day, Workspace& ws) {
  DiurnalResult r;
  const std::size_t n = values.size();
  if (samples_per_day <= 0.0 || n < static_cast<std::size_t>(2 * samples_per_day)) {
    return r;  // need at least two full days
  }
  r.power_ratio = band_ratio(values, samples_per_day, &r.total_power,
                             &r.diurnal_power, ws);
  r.diurnal = r.power_ratio >= kMinPowerRatio;
  if (!r.diurnal) return r;

  // Duration strictness: over long windows, diurnality must also hold in
  // most segments individually (section 3.2.2's duration effect).
  const std::size_t seg_len = static_cast<std::size_t>(
      std::max(2.0, kSegmentDays * samples_per_day));
  const std::size_t segments = n / seg_len;
  if (segments >= 2) {
    r.segments = static_cast<int>(segments);
    constexpr double seg_threshold = kMinPowerRatio * kSegmentRatioFactor;
    for (std::size_t s = 0; s < segments; ++s) {
      const double ratio = band_ratio(values.subspan(s * seg_len, seg_len),
                                      samples_per_day, nullptr, nullptr, ws);
      r.segments_diurnal += ratio >= seg_threshold;
    }
    if (static_cast<double>(r.segments_diurnal) <
        kMinSegmentFraction * static_cast<double>(segments)) {
      r.diurnal = false;
    }
  }
  return r;
}

}  // namespace diurnal::analysis
