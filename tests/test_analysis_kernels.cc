// Property tests for the span-based analysis kernel layer: every span
// kernel must be BIT-identical to its legacy vector/TimeSeries wrapper
// on random series (including NaN-gap and short-series edges), a
// Workspace must never leak lease state between kernels, and a warm
// BlockAnalyzer must reproduce a cold run exactly.  The fleet digest
// gate (test_fleet_digest) depends on these identities holding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/block_analyzer.h"
#include "analysis/cusum.h"
#include "analysis/diurnal_test.h"
#include "analysis/logistic.h"
#include "analysis/naive_seasonal.h"
#include "analysis/stats.h"
#include "analysis/stl.h"
#include "analysis/swing.h"
#include "analysis/workspace.h"
#include "core/classify.h"
#include "core/detect.h"
#include "core/series_store.h"
#include "util/timeseries.h"

namespace diurnal {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bitwise equality: NaN == NaN (same payload), +0 != -0.  The span
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
    const double day = 10.0 + 8.0 * std::sin(2.0 * M_PI *
                                             static_cast<double>(i) / 24.0);
    const double week = 3.0 * std::sin(2.0 * M_PI *
                                       static_cast<double>(i) / 168.0);
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

constexpr std::int64_t kHour = util::kSecondsPerHour;

// ---------------------------------------------------------------------------
// Span kernel vs legacy wrapper bit-identity
// ---------------------------------------------------------------------------

TEST(AnalysisKernels, DiurnalSpanMatchesWrapper) {
  analysis::Workspace ws;
  for (const std::size_t n : {std::size_t{5}, std::size_t{24},
                              std::size_t{49}, std::size_t{24 * 28 + 7}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto v = make_series(n, seed);
      const auto legacy = analysis::test_diurnal(v, 24.0);
      const auto span = analysis::test_diurnal(v, 24.0, {}, ws);
      EXPECT_EQ(legacy.diurnal, span.diurnal) << n << "/" << seed;
      EXPECT_EQ(bits_of(legacy.power_ratio), bits_of(span.power_ratio));
      EXPECT_EQ(bits_of(legacy.total_power), bits_of(span.total_power));
      EXPECT_EQ(bits_of(legacy.diurnal_power), bits_of(span.diurnal_power));
      EXPECT_EQ(legacy.segments, span.segments);
      EXPECT_EQ(legacy.segments_diurnal, span.segments_diurnal);
    }
  }
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(AnalysisKernels, DiurnalSpanMatchesWrapperOnNanGap) {
  analysis::Workspace ws;
  const auto v = with_nan_gap(make_series(24 * 14, 9), 100, 30);
  const auto legacy = analysis::test_diurnal(v, 24.0);
  const auto span = analysis::test_diurnal(v, 24.0, {}, ws);
  EXPECT_EQ(legacy.diurnal, span.diurnal);
  EXPECT_EQ(bits_of(legacy.power_ratio), bits_of(span.power_ratio));
  EXPECT_EQ(bits_of(legacy.total_power), bits_of(span.total_power));
}

TEST(AnalysisKernels, SwingSpanMatchesTimeSeries) {
  analysis::Workspace ws;
  // Starts offset into a day and short series exercise the partial
  // first/last day paths of the dense day axis.
  for (const std::int64_t start : {std::int64_t{0}, 5 * kHour + 1800,
                                   23 * kHour}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{20},
                                std::size_t{24 * 10 + 3}}) {
      const auto v = make_series(n, 7 + static_cast<std::uint64_t>(n));
      const util::TimeSeries ts(start, kHour, std::vector<double>(v));
      const auto legacy = analysis::classify_swing(ts);
      const auto span = analysis::classify_swing(v, start, kHour, {}, ws);
      EXPECT_EQ(legacy.wide, span.wide) << start << "/" << n;
      EXPECT_EQ(legacy.wide_days, span.wide_days);
      EXPECT_EQ(legacy.total_days, span.total_days);
      EXPECT_EQ(bits_of(legacy.max_daily_swing), bits_of(span.max_daily_swing));
      EXPECT_EQ(legacy.best_window_wide, span.best_window_wide);
    }
  }
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(AnalysisKernels, StlSpanMatchesWrapper) {
  analysis::Workspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto y = make_series(24 * 21, seed);
    analysis::StlOptions opt;
    opt.period = 24;
    opt.outer_iterations = static_cast<int>(seed % 3);  // 0 hits non-robust
    const auto legacy = analysis::stl_decompose(y, opt);
    std::vector<double> trend(y.size()), seasonal(y.size()),
        residual(y.size()), rho(y.size());
    analysis::stl_decompose(y, opt, ws, trend, seasonal, residual, rho);
    expect_same_bits(legacy.trend, trend, "trend");
    expect_same_bits(legacy.seasonal, seasonal, "seasonal");
    expect_same_bits(legacy.residual, residual, "residual");
    if (!legacy.robustness.empty()) {
      expect_same_bits(legacy.robustness, rho, "robustness");
    }
  }
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(AnalysisKernels, StlSpanMatchesWrapperOnNanGap) {
  analysis::Workspace ws;
  const auto y = with_nan_gap(make_series(24 * 21, 4), 200, 24);
  analysis::StlOptions opt;
  opt.period = 24;
  const auto legacy = analysis::stl_decompose(y, opt);
  std::vector<double> trend(y.size()), seasonal(y.size()), residual(y.size());
  analysis::stl_decompose(y, opt, ws, trend, seasonal, residual);
  expect_same_bits(legacy.trend, trend, "trend(nan)");
  expect_same_bits(legacy.seasonal, seasonal, "seasonal(nan)");
  expect_same_bits(legacy.residual, residual, "residual(nan)");
}

TEST(AnalysisKernels, StlShortSeriesThrowsInBothPaths) {
  analysis::Workspace ws;
  const auto y = make_series(30, 1);  // < 2 * period
  analysis::StlOptions opt;
  opt.period = 24;
  EXPECT_THROW(analysis::stl_decompose(y, opt), std::invalid_argument);
  std::vector<double> t(y.size()), s(y.size()), r(y.size());
  EXPECT_THROW(analysis::stl_decompose(y, opt, ws, t, s, r),
               std::invalid_argument);
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(AnalysisKernels, NaiveSpanMatchesWrapper) {
  analysis::Workspace ws;
  const auto y = make_series(24 * 9 + 5, 11);
  const auto legacy = analysis::naive_decompose(y, 24);
  std::vector<double> trend(y.size()), seasonal(y.size()), residual(y.size());
  analysis::naive_decompose(y, 24, ws, trend, seasonal, residual);
  expect_same_bits(legacy.trend, trend, "naive trend");
  expect_same_bits(legacy.seasonal, seasonal, "naive seasonal");
  expect_same_bits(legacy.residual, residual, "naive residual");
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(AnalysisKernels, CusumScanMatchesDetect) {
  analysis::OnlineCusum machine;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto z = make_series(300, seed);
    for (auto& v : z) v = (v - 10.0) / 8.0;
    if (seed == 2) z.insert(z.begin() + 150, 40, -3.0);  // force changes
    const auto batch = analysis::cusum_detect(z);
    machine.scan(z);  // reused machine, warm after the first seed
    ASSERT_EQ(batch.changes.size(), machine.confirmed().size());
    for (std::size_t i = 0; i < batch.changes.size(); ++i) {
      EXPECT_EQ(batch.changes[i].start, machine.confirmed()[i].start);
      EXPECT_EQ(batch.changes[i].alarm, machine.confirmed()[i].alarm);
      EXPECT_EQ(batch.changes[i].end, machine.confirmed()[i].end);
      EXPECT_EQ(batch.changes[i].direction, machine.confirmed()[i].direction);
      EXPECT_EQ(bits_of(batch.changes[i].amplitude),
                bits_of(machine.confirmed()[i].amplitude));
    }
    expect_same_bits(batch.g_pos, machine.g_pos(), "g_pos");
    expect_same_bits(batch.g_neg, machine.g_neg(), "g_neg");
  }
}

TEST(AnalysisKernels, AnalyzerZscoreMatchesTimeSeries) {
  analysis::BlockAnalyzer az;
  const auto v = make_series(500, 3);
  const util::TimeSeries ts(0, kHour, std::vector<double>(v));
  expect_same_bits(ts.zscore().span(), az.zscore(v), "zscore");
  // Constant series must hit the guard in both paths.
  const std::vector<double> flat(100, 42.0);
  const util::TimeSeries fts(0, kHour, std::vector<double>(flat));
  expect_same_bits(fts.zscore().span(), az.zscore(flat), "zscore(flat)");
}

TEST(AnalysisKernels, DetectChangesSpanMatchesLegacy) {
  analysis::BlockAnalyzer az;
  std::vector<core::DetectedChange> span_changes;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto v = make_series(24 * 35, seed);
    // A mid-window step change so the CUSUM has something to confirm.
    for (std::size_t i = v.size() / 2; i < v.size(); ++i) v[i] += 6.0;
    const util::TimeSeries ts(17 * kHour, kHour, std::vector<double>(v));
    const auto legacy = core::detect_changes(ts);
    core::detect_changes(v, ts.start(), ts.step(), {}, az, span_changes);
    ASSERT_EQ(legacy.changes.size(), span_changes.size()) << seed;
    for (std::size_t i = 0; i < span_changes.size(); ++i) {
      const auto& a = legacy.changes[i];
      const auto& b = span_changes[i];
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.alarm, b.alarm);
      EXPECT_EQ(a.end, b.end);
      EXPECT_EQ(a.direction, b.direction);
      EXPECT_EQ(bits_of(a.amplitude), bits_of(b.amplitude));
      EXPECT_EQ(bits_of(a.amplitude_addresses), bits_of(b.amplitude_addresses));
      EXPECT_EQ(a.filtered_as_outage, b.filtered_as_outage);
      EXPECT_EQ(a.filtered_small, b.filtered_small);
    }
  }
}

TEST(AnalysisKernels, ClassifyBlockSpanMatchesLegacy) {
  analysis::BlockAnalyzer az;
  recon::ReconResult rr;
  rr.responsive = true;
  rr.evidence_fraction = 0.9;
  rr.counts = util::TimeSeries(3 * kHour, kHour,
                               make_series(24 * 14, 21));
  const auto legacy = core::classify_block(rr);
  const auto span = core::classify_block(
      rr.counts.span(), rr.counts.start(), rr.counts.step(), rr.responsive,
      rr.evidence_fraction, {}, az);
  EXPECT_EQ(legacy.responsive, span.responsive);
  EXPECT_EQ(legacy.diurnal, span.diurnal);
  EXPECT_EQ(legacy.wide_swing, span.wide_swing);
  EXPECT_EQ(legacy.change_sensitive, span.change_sensitive);
  EXPECT_EQ(legacy.low_confidence, span.low_confidence);
  EXPECT_EQ(bits_of(legacy.diurnal_detail.power_ratio),
            bits_of(span.diurnal_detail.power_ratio));
  EXPECT_EQ(legacy.swing_detail.wide_days, span.swing_detail.wide_days);
}

TEST(AnalysisKernels, LogisticFlatMatchesNested) {
  std::vector<std::vector<double>> nested;
  std::vector<double> flat;
  std::vector<int> labels;
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (int i = 0; i < 80; ++i) {
    const double a = d(rng), b = d(rng);
    nested.push_back({a, b});
    flat.push_back(a);
    flat.push_back(b);
    labels.push_back(a + 2.0 * b > 0.3 ? 1 : 0);
  }
  analysis::LogisticModel m1, m2;
  m1.fit(nested, labels);
  m2.fit(analysis::FeatureMatrix(flat, 2), labels);
  ASSERT_EQ(m1.weights().size(), m2.weights().size());
  expect_same_bits(m1.weights(), m2.weights(), "weights");
  EXPECT_EQ(bits_of(m1.bias()), bits_of(m2.bias()));
  const auto e1 = analysis::evaluate(m1, nested, labels);
  const auto e2 = analysis::evaluate(m2, analysis::FeatureMatrix(flat, 2),
                                     labels);
  EXPECT_EQ(e1.tp, e2.tp);
  EXPECT_EQ(e1.fp, e2.fp);
  EXPECT_EQ(e1.tn, e2.tn);
  EXPECT_EQ(e1.fn, e2.fn);
}

// ---------------------------------------------------------------------------
// Workspace behavior
// ---------------------------------------------------------------------------

TEST(Workspace, LeaseLifecycle) {
  analysis::Workspace ws;
  {
    auto a = ws.acquire(100);
    auto b = ws.acquire(50);
    EXPECT_EQ(ws.outstanding(), 2u);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_EQ(b.size(), 50u);
    EXPECT_NE(a.data(), b.data());
    a.release();  // out-of-order release is allowed
    EXPECT_EQ(ws.outstanding(), 1u);
  }
  EXPECT_EQ(ws.outstanding(), 0u);
  auto z = ws.acquire_zero(64);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0.0);
}

TEST(Workspace, WarmPoolStopsMissing) {
  analysis::Workspace ws;
  const auto y = make_series(24 * 21, 2);
  std::vector<double> t(y.size()), s(y.size()), r(y.size());
  analysis::StlOptions opt;
  opt.period = 24;
  analysis::stl_decompose(y, opt, ws, t, s, r);  // cold: pool grows
  const std::size_t warm = ws.pool_misses();
  for (int i = 0; i < 3; ++i) analysis::stl_decompose(y, opt, ws, t, s, r);
  EXPECT_EQ(ws.pool_misses(), warm) << "warm workspace allocated";
  EXPECT_EQ(ws.outstanding(), 0u);
}

TEST(Workspace, ReuseNeverLeaksStateAcrossKernels) {
  // Interleave every kernel on one workspace, then verify each result
  // still matches a fresh-workspace run: leases must hand back fully
  // overwritten buffers, never stale contents.
  analysis::Workspace shared;
  const auto y1 = make_series(24 * 14, 31);
  const auto y2 = make_series(24 * 21, 32);

  const auto d_cold = [&] {
    analysis::Workspace fresh;
    return analysis::test_diurnal(y1, 24.0, {}, fresh);
  }();
  analysis::StlOptions opt;
  opt.period = 24;
  std::vector<double> t(y2.size()), s(y2.size()), r(y2.size());
  std::vector<double> t2(y2.size()), s2(y2.size()), r2(y2.size());
  {
    analysis::Workspace fresh;
    analysis::stl_decompose(y2, opt, fresh, t, s, r);
  }

  for (int round = 0; round < 3; ++round) {
    const auto d = analysis::test_diurnal(y1, 24.0, {}, shared);
    EXPECT_EQ(bits_of(d.power_ratio), bits_of(d_cold.power_ratio)) << round;
    analysis::stl_decompose(y2, opt, shared, t2, s2, r2);
    expect_same_bits(t, t2, "trend across reuse");
    expect_same_bits(r, r2, "residual across reuse");
    const auto sw = analysis::classify_swing(y1, 0, kHour, {}, shared);
    const auto sw_cold = [&] {
      analysis::Workspace fresh;
      return analysis::classify_swing(y1, 0, kHour, {}, fresh);
    }();
    EXPECT_EQ(sw.wide_days, sw_cold.wide_days) << round;
    EXPECT_EQ(shared.outstanding(), 0u) << round;
  }
}

TEST(BlockAnalyzer, WarmAnalyzerMatchesCold) {
  analysis::BlockAnalyzer warm;
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    const auto y = make_series(24 * 28, seed);
    analysis::StlOptions opt;
    opt.period = 24;
    const auto dec = warm.decompose_stl(y, opt);
    const auto z = warm.zscore(dec.trend);
    const auto cus = warm.cusum(z);

    analysis::BlockAnalyzer cold;
    const auto cdec = cold.decompose_stl(y, opt);
    const auto cz = cold.zscore(cdec.trend);
    const auto ccus = cold.cusum(cz);
    expect_same_bits(dec.trend, cdec.trend, "warm trend");
    expect_same_bits(z, cz, "warm z");
    ASSERT_EQ(cus.changes.size(), ccus.changes.size());
    expect_same_bits(cus.g_pos, ccus.g_pos, "warm g_pos");
  }
}

// ---------------------------------------------------------------------------
// SeriesStore
// ---------------------------------------------------------------------------

TEST(SeriesStore, RowsAreDisjointAndPrefixed) {
  core::SeriesStore store;
  store.reset(4, 10, 1000, kHour);
  EXPECT_EQ(store.rows(), 4u);
  EXPECT_EQ(store.stride(), 10u);
  EXPECT_EQ(store.start(), 1000);
  EXPECT_EQ(store.step(), kHour);
  for (std::size_t i = 0; i < store.rows(); ++i) {
    auto row = store.row(i);
    ASSERT_EQ(row.size(), 10u);
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = static_cast<double>(i * 100 + j);
    }
    store.set_len(i, i + 1);
  }
  for (std::size_t i = 0; i < store.rows(); ++i) {
    const auto s = store.series(i);
    ASSERT_EQ(s.size(), i + 1);  // written prefix only
    for (std::size_t j = 0; j < s.size(); ++j) {
      EXPECT_EQ(s[j], static_cast<double>(i * 100 + j));
    }
  }
  // Rows are contiguous slices of one buffer, stride apart.
  EXPECT_EQ(store.row(1).data(), store.row(0).data() + store.stride());
}

TEST(SeriesStore, ResetRecyclesAndZeroesLengths) {
  core::SeriesStore store;
  store.reset(2, 8, 0, kHour);
  store.set_len(0, 8);
  store.set_len(1, 3);
  store.reset(3, 4, 500, 2 * kHour);
  EXPECT_EQ(store.rows(), 3u);
  EXPECT_EQ(store.stride(), 4u);
  EXPECT_EQ(store.step(), 2 * kHour);
  for (std::size_t i = 0; i < store.rows(); ++i) {
    EXPECT_EQ(store.len(i), 0u) << "reset must clear lengths";
  }
  store.reset(1, 6, 0, 0);  // step <= 0 clamps to 1
  EXPECT_EQ(store.step(), 1);
}

TEST(SeriesStore, BoundReconWritesRowIdenticalToOwnedBuffer) {
  // The recon state writes the same bytes whether it owns the buffer or
  // is bound to a store row, and finalize_stats mirrors finalize.
  core::SeriesStore store;
  store.reset(1, 48, 0, kHour);
  probe::ProbeWindow w{0, 48 * kHour};
  probe::Observation obs{};

  recon::BlockReconState owned, bound;
  owned.begin(4, w);
  bound.begin(4, w);
  bound.bind_output(store.row(0));
  for (int k = 0; k < 40; ++k) {
    obs.rel_time = static_cast<std::uint32_t>(k * kHour + 300);
    obs.addr = static_cast<std::uint8_t>(k % 4);
    obs.up = (k % 3) != 0;
    owned.push(obs);
    bound.push(obs);
  }
  recon::ReconResult full;
  owned.finalize(full);
  recon::ReconStats stats;
  bound.finalize_stats(stats);
  store.set_len(0, stats.len);

  expect_same_bits(full.counts.span(), store.series(0), "bound series");
  EXPECT_EQ(full.responsive, stats.responsive);
  EXPECT_EQ(bits_of(full.mean_reply_rate), bits_of(stats.mean_reply_rate));
  EXPECT_EQ(full.observations, stats.observations);
  EXPECT_EQ(full.observed_targets, stats.observed_targets);
  EXPECT_EQ(bits_of(full.max_active), bits_of(stats.max_active));
  EXPECT_EQ(bits_of(full.evidence_fraction), bits_of(stats.evidence_fraction));
  EXPECT_EQ(bits_of(full.max_gap_seconds), bits_of(stats.max_gap_seconds));
  ASSERT_EQ(full.gaps.size(), stats.gaps.size());
  ASSERT_EQ(full.fbs_spans_seconds.size(), stats.fbs_spans_seconds.size());
  EXPECT_EQ(full.counts.start(), stats.start);
  EXPECT_EQ(full.counts.step(), stats.step);
  EXPECT_EQ(full.counts.size(), stats.len);
}

TEST(SeriesStore, BoundReconHoldsNoOwnedSampleBuffer) {
  // Bound to a store row, the recon state emits into the row only: its
  // heap footprint excludes the window-length buffer an owned state
  // holds (both states see the same gaps and cover spans).
  constexpr std::size_t kSamples = 48;
  core::SeriesStore store;
  store.reset(1, kSamples, 0, kHour);
  probe::ProbeWindow w{0, static_cast<util::SimTime>(kSamples) * kHour};
  probe::Observation obs{};

  recon::BlockReconState owned, bound;
  for (int pass = 0; pass < 2; ++pass) {  // fresh, then reused
    owned.begin(4, w);
    bound.begin(4, w);
    bound.bind_output(store.row(0));
    for (int k = 0; k < 40; ++k) {
      obs.rel_time = static_cast<std::uint32_t>(k * kHour + 300);
      obs.addr = static_cast<std::uint8_t>(k % 4);
      obs.up = (k % 3) != 0;
      owned.push(obs);
      bound.push(obs);
    }
    EXPECT_GE(owned.memory_bytes(),
              bound.memory_bytes() + kSamples * sizeof(double))
        << "pass " << pass;
    recon::ReconStats owned_stats, bound_stats;
    owned.finalize_stats(owned_stats);
    bound.finalize_stats(bound_stats);
  }
}

}  // namespace
}  // namespace diurnal
