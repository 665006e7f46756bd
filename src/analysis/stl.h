// STL: Seasonal-Trend decomposition using LOESS (Cleveland, Cleveland,
// McRae & Terpenning 1990) — the trend extractor the paper adopts in
// section 2.5 after finding it more robust to outliers than the naive
// seasonal model.
#pragma once

#include <span>
#include <vector>

#include "analysis/workspace.h"

namespace diurnal::analysis {

struct StlOptions {
  int period = 24;        ///< n_p: samples per season (e.g. 24 hourly, 168 weekly)
  int seasonal_span = 7;  ///< n_s: cycle-subseries LOESS span (odd, >= 7)
  int trend_span = 0;     ///< n_t: 0 = Cleveland default from n_p and n_s
  int lowpass_span = 0;   ///< n_l: 0 = smallest odd >= n_p
  int seasonal_degree = 1;
  int trend_degree = 1;
  int lowpass_degree = 1;
  int inner_iterations = 2;  ///< n_i
  int outer_iterations = 1;  ///< n_o: robustness passes (0 = non-robust)
  /// Evaluate-and-interpolate strides; 0 = span/10 heuristic.
  int seasonal_jump = 1;
  int trend_jump = 0;
  int lowpass_jump = 0;
};

struct StlDecomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;
  std::vector<double> residual;
  std::vector<double> robustness;  ///< final robustness weights (empty if n_o = 0)
};

/// Decomposes y (equally spaced, no missing values) into trend + seasonal
/// + residual.  y.size() must be at least 2 * period.
/// Throws std::invalid_argument for shorter series or period < 2.
StlDecomposition stl_decompose(std::span<const double> y, const StlOptions& opt);

/// Span-based decomposition into caller storage; every scratch buffer
/// is leased from `ws`, so a warm workspace runs allocation-free.
/// trend/seasonal/residual must each hold y.size() elements and must
/// not alias y, each other, or ws-leased storage.  `robustness_out` is
/// empty or y.size() elements; when non-empty and opt.outer_iterations
/// > 0 it receives the final robustness weights.  Bit-identical to the
/// vector overload.
void stl_decompose(std::span<const double> y, const StlOptions& opt,
                   Workspace& ws, std::span<double> trend,
                   std::span<double> seasonal, std::span<double> residual,
                   std::span<double> robustness_out = {});

/// The Cleveland default trend span: smallest odd integer >=
/// 1.5 * period / (1 - 1.5/seasonal_span).
int default_trend_span(int period, int seasonal_span) noexcept;

}  // namespace diurnal::analysis
