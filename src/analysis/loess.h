// LOESS: locally weighted regression smoothing (Cleveland 1979), the
// building block of STL (paper section 2.5).
//
// The smoother operates on equally spaced series (x = 0..n-1) and fits
// a local line (degree 1, the degree of every STL pass here) with
// tricube neighborhood weights, optional robustness weights, evaluation
// at fractional and out-of-range positions (needed for STL's
// cycle-subseries extension), and a `jump` parameter that evaluates
// every jump-th point and linearly interpolates in between (the
// standard STL speedup).
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace diurnal::analysis {

struct LoessOptions {
  int span = 7;  ///< q: number of neighborhood points (>= 2)
  int jump = 1;  ///< evaluate every jump-th point, interpolate between
};

/// The neighborhood loess_at() regresses over at x0: the contiguous
/// window [lo, lo + window) nearest x0 and the tricube bandwidth h
/// (Cleveland-widened when the span exceeds the data).  Exposed so the
/// batched SoA kernels (analysis/batch.h) share the exact window logic
/// with the scalar path — both must pick identical points and weights
/// for the outputs to stay bit-identical.
struct LoessWindow {
  int lo = 0;
  int window = 0;
  double h = 1.0;
};

/// Computes the window for a series of length n (n >= 2).
LoessWindow loess_window(int n, double x0, const LoessOptions& opt) noexcept;

/// Tricube neighborhood weight (1 - |u|^3)^3, zero for |u| >= 1.
/// Shared by the scalar and batched paths.
inline double tricube_weight(double u) noexcept {
  u = std::abs(u);
  if (u >= 1.0) return 0.0;
  const double t = 1.0 - u * u * u;
  return t * t * t;
}

/// Smoothed estimate of y at position x0 (x-coordinates are the indices
/// 0..n-1; x0 may be fractional or slightly out of range).
/// `robustness` is empty or one weight per point.
double loess_at(std::span<const double> y, double x0, const LoessOptions& opt,
                std::span<const double> robustness = {});

/// Smooths the whole series, returning one value per input point.
std::vector<double> loess_smooth(std::span<const double> y,
                                 const LoessOptions& opt,
                                 std::span<const double> robustness = {});

/// Same into caller storage; out.size() must equal y.size().  `out`
/// must not alias `y` or `robustness` (the smoother re-reads both
/// while writing out).
void loess_smooth(std::span<const double> y, const LoessOptions& opt,
                  std::span<const double> robustness, std::span<double> out);

/// Smooths and also extrapolates one position before the first point and
/// one after the last: out.size() must equal y.size() + 2 (positions
/// -1 .. n), with the no-alias rule above.  Used by STL's cycle-subseries
/// step.
void loess_smooth_extended(std::span<const double> y, const LoessOptions& opt,
                           std::span<const double> robustness,
                           std::span<double> out);

}  // namespace diurnal::analysis
