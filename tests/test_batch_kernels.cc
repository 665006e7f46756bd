// Property tests for the batched (SoA) analysis kernels: every batch
// kernel must be BIT-identical to its scalar counterpart on every lane,
// at every width 1..kMaxBatchLanes (ragged tails), on NaN-gap lanes, on
// both ISA clones, and through both the BatchAnalyzer chain and the
// core batch entry points (BatchDetector, classify_blocks_batch).  The
// golden fleet digest (test_fleet_digest) holds only because these
// identities hold.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "analysis/batch.h"
#include "analysis/batch_analyzer.h"
#include "analysis/block_analyzer.h"
#include "analysis/cusum.h"
#include "analysis/diurnal_test.h"
#include "analysis/fft.h"
#include "analysis/loess.h"
#include "analysis/simd.h"
#include "analysis/stl.h"
#include "analysis/workspace.h"
#include "core/classify.h"
#include "core/detect.h"
#include "oracle.h"
#include "util/timeseries.h"

namespace diurnal {
namespace {

using analysis::kMaxBatchLanes;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bitwise equality: NaN == NaN (same payload), +0 != -0.  The batched
// kernels promise bit identity, not approximate agreement.
void expect_same_bits(std::span<const double> a, std::span<const double> b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits_of(a[i]), bits_of(b[i])) << what << " diverges at " << i;
  }
}

// A plausible active-count series: diurnal sine + weekly modulation +
// integer-ish noise, hourly samples.
std::vector<double> make_series(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> noise(-1.5, 1.5);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double day =
        10.0 + 8.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 24.0);
    const double week =
        3.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / 168.0);
    v[i] = std::max(0.0, std::floor(day + week + noise(rng)));
  }
  return v;
}

std::vector<double> with_nan_gap(std::vector<double> v, std::size_t from,
                                 std::size_t len) {
  for (std::size_t i = from; i < std::min(v.size(), from + len); ++i) {
    v[i] = std::numeric_limits<double>::quiet_NaN();
  }
  return v;
}

// Per-lane robustness weights in [0, 1] with a sprinkle of exact zeros
// to exercise the `w <= 0` skip blend.
std::vector<double> make_rho(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> rho(n);
  for (auto& r : rho) {
    const double x = u(rng);
    r = x < 0.1 ? 0.0 : x;
  }
  return rho;
}

std::vector<std::vector<double>> make_lanes(std::size_t w, std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::vector<double>> lanes;
  for (std::size_t j = 0; j < w; ++j) lanes.push_back(make_series(n, seed + j));
  return lanes;
}

std::vector<double> gather(const std::vector<std::vector<double>>& lanes,
                           std::size_t n) {
  std::vector<std::span<const double>> views(lanes.begin(), lanes.end());
  std::vector<double> soa(n * lanes.size());
  analysis::soa_gather(views, n, soa.data());
  return soa;
}

std::vector<double> lane_of(const std::vector<double>& soa, std::size_t w,
                            std::size_t n, std::size_t j) {
  std::vector<double> out(n);
  analysis::soa_scatter_lane(soa.data(), w, n, j, out.data());
  return out;
}

// The ragged-tail frontier: scalar, a few odd widths, a power of two,
// and the full SIMD width.
constexpr std::size_t kWidths[] = {1, 2, 3, 4, 7, 8, kMaxBatchLanes};

constexpr std::int64_t kHour = util::kSecondsPerHour;

// ---------------------------------------------------------------------------
// Kernel-level bit identity across widths
// ---------------------------------------------------------------------------

TEST(BatchKernels, LoessSmoothBitwiseAcrossWidths) {
  const std::size_t n = 120;
  analysis::LoessOptions opt;
  opt.span = 25;
  for (const std::size_t w : kWidths) {
    const auto lanes = make_lanes(w, n, 10 + w);
    const auto y_soa = gather(lanes, n);
    std::vector<double> out_soa(n * w);
    analysis::loess_smooth_batch(y_soa.data(), w, n, opt, nullptr,
                                 out_soa.data());
    for (std::size_t j = 0; j < w; ++j) {
      const auto want = analysis::loess_smooth(lanes[j], opt);
      expect_same_bits(lane_of(out_soa, w, n, j), want, "loess_smooth");
    }
  }
}

TEST(BatchKernels, RobustLoessSmoothBitwiseAcrossWidths) {
  const std::size_t n = 96;
  analysis::LoessOptions opt;
  opt.span = 21;
  for (const std::size_t w : kWidths) {
    const auto lanes = make_lanes(w, n, 40 + w);
    std::vector<std::vector<double>> rhos;
    for (std::size_t j = 0; j < w; ++j) rhos.push_back(make_rho(n, 70 + j));
    const auto y_soa = gather(lanes, n);
    const auto rho_soa = gather(rhos, n);
    std::vector<double> out_soa(n * w);
    analysis::loess_smooth_batch(y_soa.data(), w, n, opt, rho_soa.data(),
                                 out_soa.data());
    for (std::size_t j = 0; j < w; ++j) {
      const auto want = analysis::loess_smooth(lanes[j], opt, rhos[j]);
      expect_same_bits(lane_of(out_soa, w, n, j), want, "robust loess");
    }
  }
}

TEST(BatchKernels, LoessSmoothExtendedBitwise) {
  const std::size_t n = 60;
  analysis::LoessOptions opt;
  opt.span = 11;
  for (const std::size_t w : {std::size_t{1}, std::size_t{3}, kMaxBatchLanes}) {
    const auto lanes = make_lanes(w, n, 100 + w);
    std::vector<std::vector<double>> rhos;
    for (std::size_t j = 0; j < w; ++j) rhos.push_back(make_rho(n, 130 + j));
    const auto y_soa = gather(lanes, n);
    const auto rho_soa = gather(rhos, n);
    std::vector<double> plain((n + 2) * w);
    std::vector<double> robust((n + 2) * w);
    analysis::loess_smooth_extended_batch(y_soa.data(), w, n, opt, nullptr,
                                          plain.data());
    analysis::loess_smooth_extended_batch(y_soa.data(), w, n, opt,
                                          rho_soa.data(), robust.data());
    std::vector<double> ext(n + 2);
    for (std::size_t j = 0; j < w; ++j) {
      analysis::loess_smooth_extended(lanes[j], opt, {}, ext);
      expect_same_bits(lane_of(plain, w, n + 2, j), ext, "extended loess");
      analysis::loess_smooth_extended(lanes[j], opt, rhos[j], ext);
      expect_same_bits(lane_of(robust, w, n + 2, j), ext,
                       "robust extended loess");
    }
  }
}

TEST(BatchKernels, ZscoreBitwiseWithConstantAndNanLanes) {
  const std::size_t n = 200;
  for (const std::size_t w : kWidths) {
    auto lanes = make_lanes(w, n, 200 + w);
    // Lane 0 constant (the sd guard must map it to exact zeros); the
    // last lane gets a NaN gap.
    for (auto& v : lanes[0]) v = 42.0;
    lanes[w - 1] = with_nan_gap(lanes[w - 1], 50, 12);
    const auto x_soa = gather(lanes, n);
    std::vector<double> z_soa(n * w);
    analysis::zscore_batch(x_soa.data(), w, n, z_soa.data());
    analysis::BlockAnalyzer az;
    for (std::size_t j = 0; j < w; ++j) {
      expect_same_bits(lane_of(z_soa, w, n, j), az.zscore(lanes[j]), "zscore");
    }
  }
}

TEST(BatchKernels, GoertzelBitwiseAcrossWidths) {
  const std::size_t n = 168;
  const double cycles = 7.0;  // the 24h bin of a week of hourly samples
  for (const std::size_t w : kWidths) {
    const auto lanes = make_lanes(w, n, 300 + w);
    const auto x_soa = gather(lanes, n);
    std::vector<double> power(w);
    analysis::goertzel_power_batch(x_soa.data(), w, n, cycles, power.data());
    for (std::size_t j = 0; j < w; ++j) {
      ASSERT_EQ(bits_of(power[j]),
                bits_of(analysis::goertzel_power(lanes[j], cycles)))
          << "goertzel lane " << j;
    }
  }
}

TEST(BatchKernels, MovingAverageBatchIsWidthInvariant) {
  // The scalar moving average lives inside stl.cc, so pin the batch
  // kernel against itself: lane j of a wide batch must equal a
  // one-lane batch of the same series, for every width.
  const std::size_t n = 90;
  const int m = 24;
  for (const std::size_t w : kWidths) {
    const auto lanes = make_lanes(w, n, 400 + w);
    const auto in_soa = gather(lanes, n);
    const std::size_t out_len = n - static_cast<std::size_t>(m) + 1;
    std::vector<double> out_soa(out_len * w);
    analysis::moving_average_batch(in_soa.data(), w, n, m, out_soa.data());
    for (std::size_t j = 0; j < w; ++j) {
      std::vector<double> solo(out_len);
      analysis::moving_average_batch(lanes[j].data(), 1, n, m, solo.data());
      expect_same_bits(lane_of(out_soa, w, out_len, j), solo, "moving avg");
    }
  }
}

TEST(BatchKernels, StlBitwiseAcrossWidthsRobustAndNot) {
  const std::size_t n = 240;
  for (const int outer : {0, 1}) {
    analysis::StlOptions opt;
    opt.period = 24;
    opt.outer_iterations = outer;
    for (const std::size_t w : kWidths) {
      const auto lanes = make_lanes(w, n, 500 + w);
      const auto y_soa = gather(lanes, n);
      std::vector<double> t_soa(n * w), s_soa(n * w), r_soa(n * w);
      analysis::Workspace bws;
      analysis::stl_decompose_batch(y_soa.data(), w, n, opt, bws, t_soa.data(),
                                    s_soa.data(), r_soa.data());
      analysis::Workspace sws;
      std::vector<double> t(n), s(n), r(n);
      for (std::size_t j = 0; j < w; ++j) {
        analysis::stl_decompose(lanes[j], opt, sws, t, s, r);
        expect_same_bits(lane_of(t_soa, w, n, j), t, "stl trend");
        expect_same_bits(lane_of(s_soa, w, n, j), s, "stl seasonal");
        expect_same_bits(lane_of(r_soa, w, n, j), r, "stl residual");
      }
    }
  }
}

TEST(BatchKernels, StlBitwiseWithNanLanes) {
  // A NaN-gap lane poisons its own medians (the robustness step must
  // fall back to the scalar path's exact sort) but must not perturb
  // any clean lane sharing the batch.
  const std::size_t n = 240;
  analysis::StlOptions opt;
  opt.period = 24;
  opt.outer_iterations = 1;
  const std::size_t w = 5;
  auto lanes = make_lanes(w, n, 600);
  lanes[1] = with_nan_gap(lanes[1], 30, 20);
  lanes[3] = with_nan_gap(lanes[3], 200, 40);
  const auto y_soa = gather(lanes, n);
  std::vector<double> t_soa(n * w), s_soa(n * w), r_soa(n * w);
  analysis::Workspace bws;
  analysis::stl_decompose_batch(y_soa.data(), w, n, opt, bws, t_soa.data(),
                                s_soa.data(), r_soa.data());
  analysis::Workspace sws;
  std::vector<double> t(n), s(n), r(n);
  for (std::size_t j = 0; j < w; ++j) {
    analysis::stl_decompose(lanes[j], opt, sws, t, s, r);
    expect_same_bits(lane_of(t_soa, w, n, j), t, "nan stl trend");
    expect_same_bits(lane_of(s_soa, w, n, j), s, "nan stl seasonal");
    expect_same_bits(lane_of(r_soa, w, n, j), r, "nan stl residual");
  }
}

void expect_same_diurnal(const analysis::DiurnalResult& got,
                         const analysis::DiurnalResult& want, std::size_t j) {
  EXPECT_EQ(got.diurnal, want.diurnal) << "lane " << j;
  EXPECT_EQ(bits_of(got.power_ratio), bits_of(want.power_ratio)) << "lane " << j;
  EXPECT_EQ(bits_of(got.total_power), bits_of(want.total_power)) << "lane " << j;
  EXPECT_EQ(bits_of(got.diurnal_power), bits_of(want.diurnal_power))
      << "lane " << j;
  EXPECT_EQ(got.segments, want.segments) << "lane " << j;
  EXPECT_EQ(got.segments_diurnal, want.segments_diurnal) << "lane " << j;
}

TEST(BatchKernels, DiurnalBitwiseAcrossWidthsWithNanLane) {
  const std::size_t n = 336;
  const double spd = 24.0;
  for (const std::size_t w : kWidths) {
    auto lanes = make_lanes(w, n, 700 + w);
    lanes[w - 1] = with_nan_gap(lanes[w - 1], 100, 30);
    const auto x_soa = gather(lanes, n);
    std::vector<analysis::DiurnalResult> got(w);
    analysis::Workspace bws;
    analysis::test_diurnal_batch(x_soa.data(), w, n, spd, bws, got.data());
    analysis::Workspace sws;
    for (std::size_t j = 0; j < w; ++j) {
      expect_same_diurnal(got[j], analysis::test_diurnal(lanes[j], spd, sws),
                          j);
    }
  }
}

// ---------------------------------------------------------------------------
// ISA clones: forced-generic must be bitwise-equal to the active level,
// and the dispatch counters must prove which clone ran.
// ---------------------------------------------------------------------------

struct ForcedLevelGuard {
  ~ForcedLevelGuard() { analysis::simd::clear_forced_level(); }
};

TEST(BatchKernels, GenericCloneBitwiseEqualAndDispatchCounted) {
  namespace simd = analysis::simd;
  const std::size_t n = 240, w = kMaxBatchLanes;
  analysis::StlOptions opt;
  opt.period = 24;
  opt.outer_iterations = 1;
  const auto lanes = make_lanes(w, n, 800);
  const auto y_soa = gather(lanes, n);

  ForcedLevelGuard guard;
  std::vector<double> t1(n * w), s1(n * w), r1(n * w);
  {
    simd::reset_dispatch_counts();
    analysis::Workspace ws;
    analysis::stl_decompose_batch(y_soa.data(), w, n, opt, ws, t1.data(),
                                  s1.data(), r1.data());
    const auto c = simd::dispatch_counts();
    ASSERT_GT(c.total(), 0u);
    if (simd::active_level() == simd::IsaLevel::kAvx2) {
      EXPECT_GT(c.avx2, 0u);
      EXPECT_EQ(c.generic, 0u);
    } else {
      EXPECT_GT(c.generic, 0u);
      EXPECT_EQ(c.avx2, 0u);
    }
  }

  simd::force_level(simd::IsaLevel::kGeneric);
  ASSERT_EQ(simd::active_level(), simd::IsaLevel::kGeneric);
  std::vector<double> t2(n * w), s2(n * w), r2(n * w);
  {
    simd::reset_dispatch_counts();
    analysis::Workspace ws;
    analysis::stl_decompose_batch(y_soa.data(), w, n, opt, ws, t2.data(),
                                  s2.data(), r2.data());
    const auto c = simd::dispatch_counts();
    EXPECT_GT(c.generic, 0u);
    EXPECT_EQ(c.avx2, 0u);
  }

  expect_same_bits(t1, t2, "isa trend");
  expect_same_bits(s1, s2, "isa seasonal");
  expect_same_bits(r1, r2, "isa residual");
}

// ---------------------------------------------------------------------------
// BatchAnalyzer chain vs the scalar BlockAnalyzer chain
// ---------------------------------------------------------------------------

TEST(BatchAnalyzerChain, DetectionChainBitwiseMatchesBlockAnalyzer) {
  const std::size_t n = 240;
  analysis::StlOptions stl;
  stl.period = 24;
  stl.outer_iterations = 1;
  const analysis::CusumOptions cusum{1.0, 0.001};
  for (const std::size_t w : {std::size_t{1}, std::size_t{5}, kMaxBatchLanes}) {
    const auto lanes = make_lanes(w, n, 900 + w);
    std::vector<std::span<const double>> views(lanes.begin(), lanes.end());
    analysis::BatchAnalyzer baz;
    baz.run_detection_chain(views, stl, cusum);
    ASSERT_EQ(baz.lanes(), w);
    ASSERT_EQ(baz.samples(), n);

    analysis::BlockAnalyzer az;
    for (std::size_t j = 0; j < w; ++j) {
      const auto dec = az.decompose_stl(lanes[j], stl);
      expect_same_bits(baz.trend(j), dec.trend, "chain trend");
      const auto z = az.zscore(dec.trend);
      expect_same_bits(baz.z(j), z, "chain z");
      const auto cv = az.cusum(z, cusum);
      const auto got = baz.changes(j);
      ASSERT_EQ(got.size(), cv.changes.size()) << "lane " << j;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].start, cv.changes[k].start);
        EXPECT_EQ(got[k].alarm, cv.changes[k].alarm);
        EXPECT_EQ(got[k].end, cv.changes[k].end);
        EXPECT_EQ(got[k].direction, cv.changes[k].direction);
        EXPECT_EQ(bits_of(got[k].amplitude), bits_of(cv.changes[k].amplitude));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// core::BatchDetector and core::classify_blocks_batch vs scalar paths
// ---------------------------------------------------------------------------

void expect_same_changes(const std::vector<core::DetectedChange>& got,
                         const std::vector<core::DetectedChange>& want,
                         std::size_t job) {
  ASSERT_EQ(got.size(), want.size()) << "job " << job;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].start, want[k].start) << "job " << job;
    EXPECT_EQ(got[k].alarm, want[k].alarm) << "job " << job;
    EXPECT_EQ(got[k].end, want[k].end) << "job " << job;
    EXPECT_EQ(got[k].direction, want[k].direction) << "job " << job;
    EXPECT_EQ(bits_of(got[k].amplitude), bits_of(want[k].amplitude))
        << "job " << job;
    EXPECT_EQ(bits_of(got[k].amplitude_addresses),
              bits_of(want[k].amplitude_addresses))
        << "job " << job;
    EXPECT_EQ(got[k].filtered_as_outage, want[k].filtered_as_outage)
        << "job " << job;
    EXPECT_EQ(got[k].filtered_small, want[k].filtered_small) << "job " << job;
  }
}

TEST(BatchDetectorTest, BitwiseMatchesScalarDetectOnRaggedJobs) {
  // Mixed shapes force ragged batching inside flush(): three length
  // groups, a too-short job (scalar early-out: no changes), and a
  // NaN-gap job.  max_lanes 4 forces several auto-flushes too.
  const core::DetectorOptions opt;
  struct Case {
    std::vector<double> counts;
    util::SimTime start;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 5; ++i) cases.push_back({make_series(336, 20 + i), 0});
  for (int i = 0; i < 3; ++i)
    cases.push_back({make_series(504, 40 + i), 7 * kHour});
  cases.push_back({make_series(400, 60), 0});
  cases.push_back({with_nan_gap(make_series(336, 61), 80, 24), 0});
  cases.push_back({make_series(100, 62), 0});  // < 2 periods: early-out

  // Inject a step change into a few jobs so the comparison is not
  // vacuously empty-vs-empty.
  for (std::size_t c : {std::size_t{0}, std::size_t{5}, std::size_t{8}}) {
    for (std::size_t i = cases[c].counts.size() / 2;
         i < cases[c].counts.size(); ++i) {
      cases[c].counts[i] += 6.0;
    }
  }

  core::BatchDetector det(opt, 4);
  std::vector<std::vector<core::DetectedChange>> got(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    det.enqueue(cases[c].counts, cases[c].start, kHour, &got[c]);
  }
  det.flush();
  EXPECT_EQ(det.pending(), 0u);

  analysis::BlockAnalyzer az;
  std::vector<core::DetectedChange> want;
  bool any_changes = false;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    oracle::detect_changes(cases[c].counts, cases[c].start, kHour, opt, az,
                           want);
    expect_same_changes(got[c], want, c);
    any_changes = any_changes || !want.empty();
  }
  EXPECT_TRUE(any_changes) << "no job produced changes; test is vacuous";
  EXPECT_TRUE(got[cases.size() - 1].empty());  // the short job
}

TEST(BatchClassifyTest, BitwiseMatchesClassifyBlock) {
  const core::ClassifierOptions opt;
  struct Case {
    std::vector<double> counts;
    bool responsive;
    double evidence;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 6; ++i) cases.push_back({make_series(336, 80 + i), true, 1.0});
  cases.push_back({make_series(336, 90), false, 1.0});  // skips the chain
  cases.push_back({make_series(336, 91), true, 0.3});   // low confidence
  cases.push_back({with_nan_gap(make_series(336, 92), 60, 30), true, 1.0});
  // A flat series: responsive but not diurnal.
  cases.push_back({std::vector<double>(336, 9.0), true, 1.0});

  std::vector<core::BlockClassification> got(cases.size());
  std::vector<core::BatchClassifyJob> jobs;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    jobs.push_back({cases[c].counts, 0, kHour, cases[c].responsive,
                    cases[c].evidence, &got[c]});
  }
  analysis::BatchAnalyzer baz;
  core::classify_blocks_batch(jobs, opt, baz);

  analysis::BlockAnalyzer saz;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto want =
        core::classify_block(cases[c].counts, 0, kHour, cases[c].responsive,
                             cases[c].evidence, opt, saz);
    EXPECT_EQ(got[c].responsive, want.responsive) << "job " << c;
    EXPECT_EQ(got[c].diurnal, want.diurnal) << "job " << c;
    EXPECT_EQ(got[c].wide_swing, want.wide_swing) << "job " << c;
    EXPECT_EQ(got[c].change_sensitive, want.change_sensitive) << "job " << c;
    EXPECT_EQ(got[c].low_confidence, want.low_confidence) << "job " << c;
    EXPECT_EQ(bits_of(got[c].evidence_fraction),
              bits_of(want.evidence_fraction))
        << "job " << c;
    expect_same_diurnal(got[c].diurnal_detail, want.diurnal_detail, c);
  }
}

}  // namespace
}  // namespace diurnal
