// Descriptive statistics shared by the analysis pipeline and the benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/workspace.h"

namespace diurnal::analysis {

double mean(std::span<const double> x) noexcept;

/// Population variance (divide by n).
double variance(std::span<const double> x) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> x) noexcept;

/// Median; copies and partially sorts. Returns 0 for empty input.
double median(std::span<const double> x);

/// q-quantile with linear interpolation, q in [0,1].
double quantile(std::span<const double> x, double q);

/// Allocation-free variants: the sort copy is leased from `ws`.
/// Bit-identical to the vector versions.
double median(std::span<const double> x, Workspace& ws);
double quantile(std::span<const double> x, double q, Workspace& ws);

/// The quantile interpolation over an ALREADY SORTED range (what
/// quantile() computes after its sort).  Exposed for kernels that sort
/// workspace buffers in place.
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Pearson correlation coefficient; 0 if either side is constant.
double pearson(std::span<const double> x, std::span<const double> y) noexcept;

/// Empirical CDF evaluated at the given thresholds: for each t, the
/// fraction of x <= t.
std::vector<double> ecdf_at(std::span<const double> x,
                            std::span<const double> thresholds);

/// Same into caller storage (out.size() == thresholds.size(); the sort
/// copy is leased from `ws`).  `out` may alias `thresholds`: every
/// threshold is read before its slot is written.
void ecdf_at(std::span<const double> x, std::span<const double> thresholds,
             std::span<double> out, Workspace& ws);

}  // namespace diurnal::analysis
