// STL: Seasonal-Trend decomposition using LOESS (Cleveland, Cleveland,
// McRae & Terpenning 1990) — the trend extractor the paper adopts in
// section 2.5 after finding it more robust to outliers than the naive
// seasonal model.
#pragma once

#include <span>
#include <vector>

#include "analysis/loess.h"
#include "analysis/workspace.h"

namespace diurnal::analysis {

/// STL's fixed parameters (Cleveland et al. 1990's recommendations):
/// the cycle-subseries span n_s, evaluated at every point, and two inner
/// passes per outer pass.  Every LOESS pass is local-linear; the
/// low-pass span is the smallest odd integer >= the period, and the
/// trend and low-pass passes evaluate every max(1, span / 10)-th point.
inline constexpr int kSeasonalSpan = 7;
inline constexpr int kInnerIterations = 2;

struct StlOptions {
  int period = 24;        ///< n_p: samples per season (e.g. 24 hourly, 168 weekly)
  int trend_span = 0;     ///< n_t: 0 = Cleveland default from n_p and n_s
  int outer_iterations = 1;  ///< n_o: robustness passes (0 = non-robust)
};

/// The three LOESS passes of one decomposition.
struct StlPlan {
  LoessOptions seasonal;  ///< cycle-subseries smoothing
  LoessOptions trend;
  LoessOptions lowpass;
};

/// The passes for a period and a trend span (0 = default_trend_span):
/// the one derivation both the scalar and the batched decomposition run.
StlPlan stl_plan(int period, int trend_span) noexcept;

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
/// 1.5 * period / (1 - 1.5 / kSeasonalSpan).
int default_trend_span(int period) noexcept;

}  // namespace diurnal::analysis
