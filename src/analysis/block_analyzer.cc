#include "analysis/block_analyzer.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"

namespace diurnal::analysis {

DiurnalResult BlockAnalyzer::diurnal(std::span<const double> counts,
                                     double samples_per_day) {
  return test_diurnal(counts, samples_per_day, ws_);
}

SwingResult BlockAnalyzer::swing(std::span<const double> counts,
                                 util::SimTime start, std::int64_t step,
                                 const SwingOptions& opt) {
  return classify_swing(counts, start, step, opt, ws_);
}

BlockAnalyzer::Decomposition BlockAnalyzer::decompose_stl(
    std::span<const double> y, const StlOptions& opt) {
  const std::size_t n = y.size();
  trend_.resize(n);
  seasonal_.resize(n);
  residual_.resize(n);
  stl_decompose(y, opt, ws_, trend_, seasonal_, residual_);
  return Decomposition{trend_, seasonal_, residual_};
}

std::span<const double> BlockAnalyzer::zscore(std::span<const double> x) {
  // Mirrors util::TimeSeries::zscore() operation for operation,
  // including the constant-series guard (see that implementation for
  // the rationale); the z series feeding CUSUM must match it bit for
  // bit.
  const double m = mean(x);
  const double sd = stddev(x);
  z_.resize(x.size());
  if (sd <= 1e-9 * std::max(1.0, std::abs(m))) {
    std::fill(z_.begin(), z_.end(), 0.0);
    return z_;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    z_[i] = (x[i] - m) / sd;
  }
  return z_;
}

BlockAnalyzer::CusumView BlockAnalyzer::cusum(std::span<const double> x,
                                              const CusumOptions& opt) {
  cusum_.scan(x, opt);
  return CusumView{cusum_.confirmed(), cusum_.g_pos(), cusum_.g_neg()};
}

}  // namespace diurnal::analysis
