// Batched (SoA) analysis kernels: the per-block chain evaluated for up
// to 16 blocks at once.
//
// Layout: every SoA buffer interleaves lanes sample-major —
// `soa[i * lanes + j]` is sample i of lane j — so the per-sample lane
// loop `for (j = 0; j < lanes; ++j)` touches contiguous memory and
// autovectorizes.  `lanes` is a runtime width in [1, kMaxBatchLanes];
// ragged tails are just narrow batches.  All lanes of one call share a
// sample count n: callers group equal-length blocks into a batch and
// run leftovers at a smaller width (see core::BatchDetector).
//
// Digest policy: BITWISE-IDENTICAL to the scalar kernels.  Each lane
// replicates the scalar kernel's exact operation order (shared
// quantities like LOESS windows and tricube weights depend only on
// (n, x0, options), never on lane data, so hoisting them changes no
// lane's arithmetic chain), and the AVX2 clone enables AVX2 only —
// never FMA — so no contraction can alter a rounding (analysis/simd.h).
// The golden fleet digest is therefore unchanged by batching; tests and
// bench-smoke enforce bit equality across widths 1..16 and ISA levels.
//
// Kernels dispatch through analysis/simd.h: one baseline clone and, on
// x86, an AVX2 clone compiled from the same source
// (batch_kernels.inc).  Each public entry point below records exactly
// one dispatch, so benches can prove which clone ran.
#pragma once

#include <cstddef>
#include <span>

#include "analysis/diurnal_test.h"
#include "analysis/loess.h"
#include "analysis/stl.h"
#include "analysis/workspace.h"

namespace diurnal::analysis {

/// Widest batch the kernels accept (per-lane accumulators live in
/// fixed stack arrays of this many doubles).
inline constexpr std::size_t kMaxBatchLanes = 16;

/// Interleaves `series` (each n samples) into soa[i * lanes + j].
/// soa must hold n * series.size() doubles.
void soa_gather(std::span<const std::span<const double>> series,
                std::size_t n, double* soa);

/// Extracts lane j of an n-row SoA buffer into contiguous `out` (n
/// doubles).
void soa_scatter_lane(const double* soa, std::size_t lanes, std::size_t n,
                      std::size_t lane, double* out);

// Test seams: no program calls the next four (the fused chain calls
// their kernels directly); test_batch_kernels pins each one bitwise to
// its scalar kernel at every width.

/// Batched loess_smooth(): out_soa holds n rows.  rho_soa is nullptr
/// (non-robust) or an n-row SoA of per-lane robustness weights.
void loess_smooth_batch(const double* y_soa, std::size_t lanes, std::size_t n,
                        const LoessOptions& opt, const double* rho_soa,
                        double* out_soa);

/// Batched loess_smooth_extended(): out_soa holds n + 2 rows (positions
/// -1 .. n).
void loess_smooth_extended_batch(const double* y_soa, std::size_t lanes,
                                 std::size_t n, const LoessOptions& opt,
                                 const double* rho_soa, double* out_soa);

/// Batched window-m moving average: writes in_len - m + 1 rows.
void moving_average_batch(const double* in_soa, std::size_t lanes,
                          std::size_t in_len, int m, double* out_soa);

/// Batched Goertzel bin power at `cycles`; out holds `lanes` powers.
void goertzel_power_batch(const double* x_soa, std::size_t lanes,
                          std::size_t n, double cycles, double* out);

/// Batched BlockAnalyzer::zscore(): per-lane mean/stddev with the same
/// constant-series guard (sd <= 1e-9 * max(1, |mean|) maps the lane to
/// exact zeros).  z_soa holds n rows.
void zscore_batch(const double* x_soa, std::size_t lanes, std::size_t n,
                  double* z_soa);

/// Batched stl_decompose(): same contract as the span overload
/// (throws for period < 2 or n < 2 * period; scratch leased from ws;
/// warm workspaces run allocation-free).  trend/seasonal/residual each
/// hold n rows and must not alias y_soa or each other.
void stl_decompose_batch(const double* y_soa, std::size_t lanes,
                         std::size_t n, const StlOptions& opt, Workspace& ws,
                         double* trend_soa, double* seasonal_soa,
                         double* residual_soa);

/// Batched test_diurnal(): out holds `lanes` results, each bit-identical
/// to the scalar test on that lane.
void test_diurnal_batch(const double* x_soa, std::size_t lanes, std::size_t n,
                        double samples_per_day, Workspace& ws,
                        DiurnalResult* out);

}  // namespace diurnal::analysis
