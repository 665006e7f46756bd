#include "analysis/batch_analyzer.h"

#include <stdexcept>

namespace diurnal::analysis {

void BatchAnalyzer::run_detection_chain(
    std::span<const std::span<const double>> series, const StlOptions& stl,
    const CusumOptions& cusum) {
  const std::size_t lanes = series.size();
  if (lanes > kMaxLanes) {
    throw std::invalid_argument("BatchAnalyzer: too many lanes");
  }
  lanes_ = lanes;
  if (lanes == 0) {
    samples_ = 0;
    return;
  }
  const std::size_t n = series[0].size();
  for (const auto& s : series) {
    if (s.size() != n) {
      throw std::invalid_argument(
          "BatchAnalyzer: all lanes must share one length");
    }
  }
  samples_ = n;
  y_soa_.resize(n * lanes);
  trend_soa_.resize(n * lanes);
  seasonal_soa_.resize(n * lanes);
  residual_soa_.resize(n * lanes);
  z_soa_.resize(n * lanes);
  trend_rows_.resize(n * lanes);
  z_rows_.resize(n * lanes);

  soa_gather(series, n, y_soa_.data());
  stl_decompose_batch(y_soa_.data(), lanes, n, stl, ws_, trend_soa_.data(),
                      seasonal_soa_.data(), residual_soa_.data());
  zscore_batch(trend_soa_.data(), lanes, n, z_soa_.data());
  for (std::size_t j = 0; j < lanes; ++j) {
    soa_scatter_lane(trend_soa_.data(), lanes, n, j,
                     trend_rows_.data() + j * n);
    soa_scatter_lane(z_soa_.data(), lanes, n, j, z_rows_.data() + j * n);
    // CUSUM stays scalar per lane: its excursion state machine is
    // data-dependent and already two orders of magnitude faster than
    // STL (DESIGN "Batched SoA analysis kernels").
    cusum_[j].scan(z(j), cusum);
  }
}

std::span<const double> BatchAnalyzer::trend(std::size_t lane) const noexcept {
  return {trend_rows_.data() + lane * samples_, samples_};
}

std::span<const double> BatchAnalyzer::z(std::size_t lane) const noexcept {
  return {z_rows_.data() + lane * samples_, samples_};
}

std::span<const ChangePoint> BatchAnalyzer::changes(
    std::size_t lane) const noexcept {
  return cusum_[lane].confirmed();
}

void BatchAnalyzer::diurnal(std::span<const std::span<const double>> series,
                            double samples_per_day,
                            std::span<DiurnalResult> out) {
  const std::size_t lanes = series.size();
  if (lanes > kMaxLanes || out.size() < lanes) {
    throw std::invalid_argument("BatchAnalyzer: bad diurnal batch shape");
  }
  if (lanes == 0) return;
  const std::size_t n = series[0].size();
  for (const auto& s : series) {
    if (s.size() != n) {
      throw std::invalid_argument(
          "BatchAnalyzer: all lanes must share one length");
    }
  }
  y_soa_.resize(n * lanes);
  soa_gather(series, n, y_soa_.data());
  test_diurnal_batch(y_soa_.data(), lanes, n, samples_per_day, ws_,
                     out.data());
}

}  // namespace diurnal::analysis
