// The "naive" seasonality model the paper compared against STL
// (section 2.5): classical additive decomposition — a centered moving
// average for the trend, per-phase means of the detrended series for the
// seasonal component.  Kept as the ablation baseline; STL won because
// this model is not robust to outliers.
#pragma once

#include <span>
#include <vector>

#include "analysis/workspace.h"

namespace diurnal::analysis {

struct NaiveDecomposition {
  std::vector<double> trend;
  std::vector<double> seasonal;
  std::vector<double> residual;
};

/// Classical additive decomposition with the given period.
/// The centered-moving-average trend is extended to the series edges by
/// holding the first/last computable value.  y.size() must be >= 2*period.
NaiveDecomposition naive_decompose(std::span<const double> y, int period);

/// Span-based decomposition into caller storage; the per-phase
/// accumulators are leased from `ws`.  trend/seasonal/residual must
/// each hold y.size() elements and must not alias y or each other.
/// Bit-identical to the vector overload.
void naive_decompose(std::span<const double> y, int period, Workspace& ws,
                     std::span<double> trend, std::span<double> seasonal,
                     std::span<double> residual);

}  // namespace diurnal::analysis
