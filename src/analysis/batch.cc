#include "analysis/batch.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <stdexcept>

#include "analysis/simd.h"
#include "analysis/stats.h"

#if defined(__GNUC__) || defined(__clang__)
#define DIURNAL_RESTRICT __restrict
#else
#define DIURNAL_RESTRICT
#endif

#if defined(__x86_64__) || defined(__i386__)
#define DIURNAL_BATCH_HAVE_AVX2 1
#else
#define DIURNAL_BATCH_HAVE_AVX2 0
#endif

namespace diurnal::analysis {

namespace {

// The kernel bodies, compiled once at the build's baseline ISA...
namespace generic {
#include "analysis/batch_kernels.inc"
}  // namespace generic

// ...and once more as an AVX2 clone on x86.  Only "avx2" is enabled —
// never "fma" — so the clone cannot contract a*b+c and change a
// rounding; see the bitwise contract in batch.h / simd.h.
#if DIURNAL_BATCH_HAVE_AVX2
#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
namespace avx2 {
#include "analysis/batch_kernels.inc"
}  // namespace avx2
#pragma clang attribute pop
#else
#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#include "analysis/batch_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif
#endif  // DIURNAL_BATCH_HAVE_AVX2

// One function pointer per kernel; both clones share batch_kernels.inc
// so the table shape is the clone list.
struct Kernels {
  void (*loess_smooth)(const double*, std::size_t, std::size_t,
                       const LoessOptions&, const double*, double*);
  void (*loess_smooth_extended)(const double*, std::size_t, std::size_t,
                                const LoessOptions&, const double*, double*);
  void (*moving_average)(const double*, std::size_t, std::size_t, int,
                         double*);
  void (*goertzel)(const double*, std::size_t, std::size_t, double, double*);
  void (*zscore)(const double*, std::size_t, std::size_t, double*);
};

constexpr Kernels kGenericKernels{
    generic::loess_smooth_batch_impl,
    generic::loess_smooth_extended_batch_impl,
    generic::moving_average_batch_impl,
    generic::goertzel_power_batch_impl,
    generic::zscore_batch_impl,
};

#if DIURNAL_BATCH_HAVE_AVX2
constexpr Kernels kAvx2Kernels{
    avx2::loess_smooth_batch_impl,
    avx2::loess_smooth_extended_batch_impl,
    avx2::moving_average_batch_impl,
    avx2::goertzel_power_batch_impl,
    avx2::zscore_batch_impl,
};
#endif

// Resolves the clone for this call and records the dispatch.  Each
// public entry point calls this exactly once, so the simd counters
// count user-visible batched operations, not inner kernels.
const Kernels& dispatch() noexcept {
  const simd::IsaLevel level = simd::active_level();
  simd::record_dispatch(level);
#if DIURNAL_BATCH_HAVE_AVX2
  if (level == simd::IsaLevel::kAvx2) return kAvx2Kernels;
#endif
  return kGenericKernels;
}

void check_lanes(std::size_t lanes) {
  if (lanes > kMaxBatchLanes) {
    throw std::invalid_argument(
        "batch kernels accept at most kMaxBatchLanes lanes");
  }
}

}  // namespace

void soa_gather(std::span<const std::span<const double>> series,
                std::size_t n, double* soa) {
  const std::size_t lanes = series.size();
  check_lanes(lanes);
  for (std::size_t j = 0; j < lanes; ++j) {
    const double* src = series[j].data();
    for (std::size_t i = 0; i < n; ++i) soa[i * lanes + j] = src[i];
  }
}

void soa_scatter_lane(const double* soa, std::size_t lanes, std::size_t n,
                      std::size_t lane, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = soa[i * lanes + lane];
}

void loess_smooth_batch(const double* y_soa, std::size_t lanes, std::size_t n,
                        const LoessOptions& opt, const double* rho_soa,
                        double* out_soa) {
  check_lanes(lanes);
  if (lanes == 0) return;
  dispatch().loess_smooth(y_soa, lanes, n, opt, rho_soa, out_soa);
}

void loess_smooth_extended_batch(const double* y_soa, std::size_t lanes,
                                 std::size_t n, const LoessOptions& opt,
                                 const double* rho_soa, double* out_soa) {
  check_lanes(lanes);
  if (lanes == 0) return;
  dispatch().loess_smooth_extended(y_soa, lanes, n, opt, rho_soa, out_soa);
}

void moving_average_batch(const double* in_soa, std::size_t lanes,
                          std::size_t in_len, int m, double* out_soa) {
  check_lanes(lanes);
  if (lanes == 0) return;
  dispatch().moving_average(in_soa, lanes, in_len, m, out_soa);
}

void goertzel_power_batch(const double* x_soa, std::size_t lanes,
                          std::size_t n, double cycles, double* out) {
  check_lanes(lanes);
  if (lanes == 0) return;
  dispatch().goertzel(x_soa, lanes, n, cycles, out);
}

void zscore_batch(const double* x_soa, std::size_t lanes, std::size_t n,
                  double* z_soa) {
  check_lanes(lanes);
  if (lanes == 0) return;
  dispatch().zscore(x_soa, lanes, n, z_soa);
}

void stl_decompose_batch(const double* y_soa, std::size_t lanes,
                         std::size_t n, const StlOptions& opt, Workspace& ws,
                         double* trend_soa, double* seasonal_soa,
                         double* residual_soa) {
  check_lanes(lanes);
  if (lanes == 0) return;
  const Kernels& kern = dispatch();
  const std::size_t W = lanes;
  const int p = opt.period;
  if (p < 2) {
    throw std::invalid_argument("stl_decompose_batch: period must be >= 2");
  }
  if (n < 2 * static_cast<std::size_t>(p)) {
    throw std::invalid_argument(
        "stl_decompose_batch: need at least two periods of data");
  }
  const std::size_t un = n;
  const std::size_t up = static_cast<std::size_t>(p);

  const StlPlan plan = stl_plan(p, opt.trend_span);

  std::fill_n(trend_soa, un * W, 0.0);
  std::fill_n(seasonal_soa, un * W, 0.0);
  std::fill_n(residual_soa, un * W, 0.0);

  // The scalar decomposition's scratch set, widened to W lanes each.
  const std::size_t sub_cap = (un + up - 1) / up;
  auto extended = ws.acquire((un + 2 * up) * W);
  auto deseason = ws.acquire(un * W);
  auto sub = ws.acquire(sub_cap * W);
  auto sub_rho = ws.acquire(sub_cap * W);
  auto sub_smooth = ws.acquire((sub_cap + 2) * W);
  auto ma1 = ws.acquire((un + up + 1) * W);
  auto ma2 = ws.acquire((un + 2) * W);
  auto ma3 = ws.acquire(un * W);
  auto lowpass = ws.acquire(un * W);
  auto rho = ws.acquire(un * W);
  bool have_rho = false;

  const int outer_passes = std::max(opt.outer_iterations, 0) + 1;
  for (int outer = 0; outer < outer_passes; ++outer) {
    const double* rho_ptr = have_rho ? rho.data() : nullptr;
    for (int inner = 0; inner < kInnerIterations; ++inner) {
      // Steps 1+2: detrend fused into the cycle-subseries gather.  The
      // detrended series is only ever read phase-striped here, so the
      // subtraction happens in the gather rows (same expression, same
      // per-lane order as a separate detrend pass) instead of paying a
      // full write+read of an un*W scratch buffer per iteration.  Every
      // lane shares phase structure (one n for the batch), so the
      // gather/scatter rows are W-wide contiguous copies.  `extended`
      // needs no zero-fill: with n >= 2p every phase has len >= 1 and
      // the scatter below covers all un + 2p rows.
      for (std::size_t phase = 0; phase < up; ++phase) {
        std::size_t len = 0;
        for (std::size_t i = phase; i < un; i += up) {
          const double* yrow = y_soa + i * W;
          const double* trow = trend_soa + i * W;
          double* drow = sub.data() + len * W;
          for (std::size_t j = 0; j < W; ++j) drow[j] = yrow[j] - trow[j];
          if (have_rho) {
            const double* rrow = rho.data() + i * W;
            double* dr = sub_rho.data() + len * W;
            for (std::size_t j = 0; j < W; ++j) dr[j] = rrow[j];
          }
          ++len;
        }
        if (len == 0) continue;
        kern.loess_smooth_extended(sub.data(), W, len, plan.seasonal,
                                   have_rho ? sub_rho.data() : nullptr,
                                   sub_smooth.data());
        for (std::size_t k = 0; k < len + 2; ++k) {
          const std::size_t idx = phase + k * up;
          if (idx < un + 2 * up) {
            const double* srow = sub_smooth.data() + k * W;
            double* drow = extended.data() + idx * W;
            for (std::size_t j = 0; j < W; ++j) drow[j] = srow[j];
          }
        }
      }
      // Step 3: low-pass MA(p) -> MA(p) -> MA(3) -> LOESS(n_l).
      kern.moving_average(extended.data(), W, un + 2 * up, p, ma1.data());
      kern.moving_average(ma1.data(), W, un + up + 1, p, ma2.data());
      kern.moving_average(ma2.data(), W, un + 2, 3, ma3.data());
      kern.loess_smooth(ma3.data(), W, un, plan.lowpass, nullptr,
                        lowpass.data());
      // Steps 4+5: seasonal = extended(middle) - lowpass, fused with
      // deseason = y - seasonal (the fresh seasonal row is still in
      // registers; one pass instead of two over un*W).
      for (std::size_t i = 0; i < un; ++i) {
        const double* erow = extended.data() + (i + up) * W;
        const double* lrow = lowpass.data() + i * W;
        const double* yrow = y_soa + i * W;
        double* srow = seasonal_soa + i * W;
        double* drow = deseason.data() + i * W;
        for (std::size_t j = 0; j < W; ++j) {
          srow[j] = erow[j] - lrow[j];
          drow[j] = yrow[j] - srow[j];
        }
      }
      // Step 6: trend smoothing.
      kern.loess_smooth(deseason.data(), W, un, plan.trend, rho_ptr,
                        trend_soa);
    }
    for (std::size_t e = 0; e < un * W; ++e) {
      residual_soa[e] = y_soa[e] - trend_soa[e] - seasonal_soa[e];
    }
    if (outer + 1 < outer_passes) {
      // Per-lane bisquare weights.  The scalar path sorts that block's
      // absolute residuals for the median; extracting lane j preserves
      // the element sequence, so the sort and quantile match bit for
      // bit.
      auto abs_r = ws.acquire(un * W);
      for (std::size_t e = 0; e < un * W; ++e) {
        abs_r[e] = std::abs(residual_soa[e]);
      }
      auto med = ws.acquire(un);
      double h[kMaxBatchLanes];
      // quantile_sorted(.., 0.5) reads only the two middle order
      // statistics, which nth_element + min_element deliver in O(n)
      // with the same values a full sort would (|residual| never
      // yields -0.0, so equal keys share one bit pattern).  NaNs break
      // strict weak ordering — sort and nth_element may then disagree —
      // so a lane containing NaN takes the scalar's exact std::sort.
      const double qpos = 0.5 * static_cast<double>(un - 1);
      const std::size_t qlo = static_cast<std::size_t>(qpos);
      const std::size_t qhi = std::min(qlo + 1, un - 1);
      const double qfrac = qpos - static_cast<double>(qlo);
      for (std::size_t j = 0; j < W; ++j) {
        bool has_nan = false;
        for (std::size_t i = 0; i < un; ++i) {
          med[i] = abs_r[i * W + j];
          has_nan = has_nan || std::isnan(med[i]);
        }
        double m_lo;
        double m_hi;
        if (has_nan) {
          std::sort(med.data(), med.data() + un);
          m_lo = med[qlo];
          m_hi = med[qhi];
        } else {
          std::nth_element(med.data(), med.data() + qlo, med.data() + un);
          m_lo = med[qlo];
          m_hi = qhi == qlo
                     ? m_lo
                     : *std::min_element(med.data() + qlo + 1,
                                         med.data() + un);
        }
        h[j] = 6.0 * (m_lo * (1.0 - qfrac) + m_hi * qfrac);
      }
      std::fill_n(rho.data(), un * W, 1.0);
      have_rho = true;
      for (std::size_t j = 0; j < W; ++j) {
        if (h[j] > 0.0) {
          for (std::size_t i = 0; i < un; ++i) {
            const double u = abs_r[i * W + j] / h[j];
            if (u >= 1.0) {
              rho[i * W + j] = 0.0;
            } else {
              const double t = 1.0 - u * u;
              rho[i * W + j] = t * t;
            }
          }
        }
      }
    }
  }
}

namespace {

// Batched band_ratio (diurnal_test.cc): per-lane diurnal-band power
// ratio of the mean-removed window.  Lanes whose total power is not
// positive get ratio 0 and band 0, exactly like the scalar early
// return (their discarded Goertzel sums cost a little waste, never a
// different answer).
void band_ratio_batch(const Kernels& kern, const double* values,
                      std::size_t W, std::size_t n, double samples_per_day,
                      Workspace& ws, double* total_out, double* band_out,
                      double* ratio_out) {
  double m[kMaxBatchLanes];
  for (std::size_t j = 0; j < W; ++j) m[j] = 0.0;
  if (n > 0) {
    double s[kMaxBatchLanes];
    for (std::size_t j = 0; j < W; ++j) s[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = values + i * W;
      for (std::size_t j = 0; j < W; ++j) s[j] += row[j];
    }
    for (std::size_t j = 0; j < W; ++j) {
      m[j] = s[j] / static_cast<double>(n);
    }
  }
  auto lease = ws.acquire(n * W);
  double* x = lease.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = values + i * W;
    double* xrow = x + i * W;
    for (std::size_t j = 0; j < W; ++j) xrow[j] = row[j] - m[j];
  }

  double total_power[kMaxBatchLanes];
  {
    double total[kMaxBatchLanes];
    for (std::size_t j = 0; j < W; ++j) total[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* xrow = x + i * W;
      for (std::size_t j = 0; j < W; ++j) total[j] += xrow[j] * xrow[j];
    }
    for (std::size_t j = 0; j < W; ++j) {
      total_power[j] = static_cast<double>(n) * total[j];
      total_out[j] = total_power[j];
      band_out[j] = 0.0;
    }
  }

  const double daily_cycles = static_cast<double>(n) / samples_per_day;
  double band[kMaxBatchLanes];
  double bin[kMaxBatchLanes];
  for (std::size_t j = 0; j < W; ++j) band[j] = 0.0;
  for (int h = 1; h <= kDiurnalHarmonics; ++h) {
    const double c = daily_cycles * h;
    if (c >= static_cast<double>(n) / 2.0) break;  // beyond Nyquist
    kern.goertzel(x, W, n, c, bin);
    for (std::size_t j = 0; j < W; ++j) band[j] += bin[j];
    if (c > 1.5) {
      kern.goertzel(x, W, n, c - 1.0, bin);
      for (std::size_t j = 0; j < W; ++j) band[j] += bin[j];
      kern.goertzel(x, W, n, c + 1.0, bin);
      for (std::size_t j = 0; j < W; ++j) band[j] += bin[j];
    }
  }
  for (std::size_t j = 0; j < W; ++j) {
    if (total_power[j] <= 0.0) {
      ratio_out[j] = 0.0;  // band_out stays 0, like the scalar
      continue;
    }
    band_out[j] = 2.0 * band[j];
    ratio_out[j] = std::min(1.0, 2.0 * band[j] / total_power[j]);
  }
}

}  // namespace

void test_diurnal_batch(const double* x_soa, std::size_t lanes, std::size_t n,
                        double samples_per_day, Workspace& ws,
                        DiurnalResult* out) {
  check_lanes(lanes);
  if (lanes == 0) return;
  const Kernels& kern = dispatch();
  const std::size_t W = lanes;
  for (std::size_t j = 0; j < W; ++j) out[j] = DiurnalResult{};
  if (samples_per_day <= 0.0 ||
      n < static_cast<std::size_t>(2 * samples_per_day)) {
    return;  // need at least two full days
  }
  double total[kMaxBatchLanes];
  double band[kMaxBatchLanes];
  double ratio[kMaxBatchLanes];
  band_ratio_batch(kern, x_soa, W, n, samples_per_day, ws, total, band,
                   ratio);
  bool any_diurnal = false;
  for (std::size_t j = 0; j < W; ++j) {
    out[j].power_ratio = ratio[j];
    out[j].total_power = total[j];
    out[j].diurnal_power = band[j];
    out[j].diurnal = ratio[j] >= kMinPowerRatio;
    any_diurnal = any_diurnal || out[j].diurnal;
  }

  // Duration strictness: evaluated for the whole batch when any lane
  // passed the first gate, applied only to lanes that did (the scalar
  // returns before segmenting for the rest, leaving segments == 0).
  const std::size_t seg_len = static_cast<std::size_t>(
      std::max(2.0, kSegmentDays * samples_per_day));
  const std::size_t segments = n / seg_len;
  if (!any_diurnal || segments < 2) return;
  int seg_pass[kMaxBatchLanes];
  for (std::size_t j = 0; j < W; ++j) seg_pass[j] = 0;
  constexpr double seg_threshold = kMinPowerRatio * kSegmentRatioFactor;
  for (std::size_t s = 0; s < segments; ++s) {
    band_ratio_batch(kern, x_soa + s * seg_len * W, W, seg_len,
                     samples_per_day, ws, total, band, ratio);
    for (std::size_t j = 0; j < W; ++j) {
      seg_pass[j] += ratio[j] >= seg_threshold;
    }
  }
  for (std::size_t j = 0; j < W; ++j) {
    if (!out[j].diurnal) continue;
    out[j].segments = static_cast<int>(segments);
    out[j].segments_diurnal = seg_pass[j];
    if (static_cast<double>(seg_pass[j]) <
        kMinSegmentFraction * static_cast<double>(segments)) {
      out[j].diurnal = false;
    }
  }
}

}  // namespace diurnal::analysis
