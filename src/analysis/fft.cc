#include "analysis/fft.h"

#include <cmath>
#include <cstddef>
#include <numbers>

namespace diurnal::analysis {

double goertzel_power(std::span<const double> x, double cycles) noexcept {
  const std::size_t n = x.size();
  if (n == 0) return 0.0;
  const double w = 2.0 * std::numbers::pi * cycles / static_cast<double>(n);
  const double coeff = 2.0 * std::cos(w);
  double s_prev = 0.0, s_prev2 = 0.0;
  for (const double v : x) {
    const double s = v + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  // |X(f)|^2 = s1^2 + s2^2 - coeff*s1*s2
  return s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
}

}  // namespace diurnal::analysis
