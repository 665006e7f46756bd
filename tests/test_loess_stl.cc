// Tests for LOESS, STL, and the naive seasonal baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "analysis/loess.h"
#include "analysis/naive_seasonal.h"
#include "analysis/stats.h"
#include "analysis/stl.h"
#include "util/rng.h"

namespace diurnal::analysis {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Loess, ReproducesConstant) {
  std::vector<double> y(50, 4.0);
  const auto s = loess_smooth(y, LoessOptions{9, 1});
  for (const double v : s) EXPECT_NEAR(v, 4.0, 1e-9);
}

TEST(Loess, Degree1ReproducesLine) {
  std::vector<double> y(60);
  for (int i = 0; i < 60; ++i) y[static_cast<std::size_t>(i)] = 3.0 + 0.5 * i;
  const auto s = loess_smooth(y, LoessOptions{11, 1});
  for (int i = 0; i < 60; ++i) {
    EXPECT_NEAR(s[static_cast<std::size_t>(i)], 3.0 + 0.5 * i, 1e-9) << i;
  }
}

TEST(Loess, SmoothsNoise) {
  util::Xoshiro256 rng(1);
  std::vector<double> y(200);
  for (int i = 0; i < 200; ++i) {
    y[static_cast<std::size_t>(i)] = 10.0 + rng.normal(0, 2.0);
  }
  const auto s = loess_smooth(y, LoessOptions{41, 1});
  EXPECT_LT(stddev(s), stddev(y) * 0.6);
  EXPECT_NEAR(mean(s), 10.0, 0.5);
}

TEST(Loess, RobustnessWeightsDampOutlier) {
  std::vector<double> y(30, 5.0);
  y[15] = 100.0;
  std::vector<double> rho(30, 1.0);
  rho[15] = 0.0;  // fully distrust the outlier
  const auto plain = loess_smooth(y, LoessOptions{9, 1});
  const auto robust = loess_smooth(y, LoessOptions{9, 1}, rho);
  EXPECT_GT(std::abs(plain[14] - 5.0), 1.0);
  EXPECT_NEAR(robust[14], 5.0, 1e-6);
}

TEST(Loess, ExtendedEndpointsExtrapolate) {
  std::vector<double> y(20);
  for (int i = 0; i < 20; ++i) y[static_cast<std::size_t>(i)] = 2.0 * i;
  std::vector<double> ext(22);
  loess_smooth_extended(y, LoessOptions{7, 1}, {}, ext);
  EXPECT_NEAR(ext[0], -2.0, 1e-9);    // position -1
  EXPECT_NEAR(ext[21], 40.0, 1e-9);   // position 20
  EXPECT_NEAR(ext[1], 0.0, 1e-9);     // position 0
}

TEST(Loess, JumpInterpolationCloseToExact) {
  util::Xoshiro256 rng(2);
  std::vector<double> y(300);
  for (int i = 0; i < 300; ++i) {
    y[static_cast<std::size_t>(i)] =
        std::sin(i * 0.05) * 10 + rng.normal(0, 0.2);
  }
  const auto exact = loess_smooth(y, LoessOptions{31, 1});
  const auto jumped = loess_smooth(y, LoessOptions{31, 5});
  double max_diff = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(exact[i] - jumped[i]));
  }
  EXPECT_LT(max_diff, 0.25);
}

// --- STL ---

struct Synthetic {
  std::vector<double> y, trend, seasonal;
};

Synthetic make_synthetic(int periods, int period, double noise,
                         std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Synthetic s;
  const int n = periods * period;
  for (int i = 0; i < n; ++i) {
    const double tr = 20.0 + 5.0 * std::sin(2 * kPi * i / (n * 2.0));
    const double se = 6.0 * std::sin(2 * kPi * (i % period) / period);
    s.trend.push_back(tr);
    s.seasonal.push_back(se);
    s.y.push_back(tr + se + rng.normal(0, noise));
  }
  return s;
}

TEST(Stl, RecoversComponents) {
  const auto syn = make_synthetic(12, 24, 0.5, 3);
  StlOptions opt;
  opt.period = 24;
  const auto d = stl_decompose(syn.y, opt);
  ASSERT_EQ(d.trend.size(), syn.y.size());
  // Compare away from the edges where LOESS has less support.
  double trend_err = 0.0, seasonal_err = 0.0;
  int counted = 0;
  for (std::size_t i = 48; i + 48 < syn.y.size(); ++i) {
    trend_err += std::abs(d.trend[i] - syn.trend[i]);
    seasonal_err += std::abs(d.seasonal[i] - syn.seasonal[i]);
    ++counted;
  }
  EXPECT_LT(trend_err / counted, 0.8);
  EXPECT_LT(seasonal_err / counted, 0.8);
}

TEST(Stl, ComponentsSumToSeries) {
  const auto syn = make_synthetic(8, 24, 1.0, 4);
  StlOptions opt;
  opt.period = 24;
  const auto d = stl_decompose(syn.y, opt);
  for (std::size_t i = 0; i < syn.y.size(); ++i) {
    EXPECT_NEAR(d.trend[i] + d.seasonal[i] + d.residual[i], syn.y[i], 1e-9);
  }
}

TEST(Stl, RejectsShortSeries) {
  std::vector<double> y(30, 1.0);
  StlOptions opt;
  opt.period = 24;
  EXPECT_THROW(stl_decompose(y, opt), std::invalid_argument);
  opt.period = 1;
  EXPECT_THROW(stl_decompose(y, opt), std::invalid_argument);
}

TEST(Stl, RobustToOutliers) {
  auto syn = make_synthetic(12, 24, 0.3, 5);
  // Inject a burst of large outliers.
  for (int i = 100; i < 106; ++i) syn.y[static_cast<std::size_t>(i)] += 60.0;
  StlOptions robust;
  robust.period = 24;
  robust.outer_iterations = 2;
  StlOptions plain = robust;
  plain.outer_iterations = 0;
  const auto dr = stl_decompose(syn.y, robust);
  const auto dp = stl_decompose(syn.y, plain);
  // The robust trend should stay closer to truth near the outliers.
  double err_r = 0.0, err_p = 0.0;
  for (int i = 90; i < 120; ++i) {
    err_r += std::abs(dr.trend[static_cast<std::size_t>(i)] -
                      syn.trend[static_cast<std::size_t>(i)]);
    err_p += std::abs(dp.trend[static_cast<std::size_t>(i)] -
                      syn.trend[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(err_r, err_p);
  // Robustness weights must flag the outliers.
  ASSERT_EQ(dr.robustness.size(), syn.y.size());
  for (int i = 101; i < 105; ++i) {
    EXPECT_LT(dr.robustness[static_cast<std::size_t>(i)], 0.2) << i;
  }
}

TEST(Stl, DefaultTrendSpanFormula) {
  // Smallest odd >= 1.5 p / (1 - 1.5/n_s).
  EXPECT_EQ(default_trend_span(24), 47);
  EXPECT_EQ(default_trend_span(168), 321);
  EXPECT_GE(default_trend_span(2) % 2, 1);
}

TEST(Stl, PlanDerivesTheThreePasses) {
  // The detector's weekly plan: n_s 7 at every point, the trend span
  // made odd, the low-pass span the next odd >= p, both at span / 10.
  const StlPlan p = stl_plan(168, 210);
  EXPECT_EQ(p.seasonal.span, kSeasonalSpan);
  EXPECT_EQ(p.seasonal.jump, 1);
  EXPECT_EQ(p.trend.span, 211);
  EXPECT_EQ(p.trend.jump, 21);
  EXPECT_EQ(p.lowpass.span, 169);
  EXPECT_EQ(p.lowpass.jump, 16);
  // Trend span 0 is the Cleveland default; short spans still jump by 1.
  EXPECT_EQ(stl_plan(24, 0).trend.span, default_trend_span(24));
  EXPECT_EQ(stl_plan(4, 0).lowpass.span, 5);
  EXPECT_EQ(stl_plan(4, 0).lowpass.jump, 1);
}

// Property: STL seasonal component is (approximately) zero-mean over
// each full cycle for a variety of periods.
class StlPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(StlPeriodSweep, SeasonalRoughlyZeroMean) {
  const int period = GetParam();
  const auto syn = make_synthetic(8, period, 0.5, 7);
  StlOptions opt;
  opt.period = period;
  const auto d = stl_decompose(syn.y, opt);
  const double m = mean(d.seasonal);
  EXPECT_LT(std::abs(m), 0.5) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Periods, StlPeriodSweep,
                         ::testing::Values(4, 7, 12, 24, 48, 168));

// --- naive decomposition ---

TEST(Naive, RecoversSeasonalOnCleanSignal) {
  const auto syn = make_synthetic(10, 12, 0.0, 8);
  const auto d = naive_decompose(syn.y, 12);
  for (std::size_t i = 24; i + 24 < syn.y.size(); ++i) {
    EXPECT_NEAR(d.seasonal[i], syn.seasonal[i], 0.6) << i;
  }
}

TEST(Naive, ComponentsSumToSeries) {
  const auto syn = make_synthetic(6, 24, 1.0, 9);
  const auto d = naive_decompose(syn.y, 24);
  for (std::size_t i = 0; i < syn.y.size(); ++i) {
    EXPECT_NEAR(d.trend[i] + d.seasonal[i] + d.residual[i], syn.y[i], 1e-9);
  }
}

TEST(Naive, LessRobustThanStlToOutliers) {
  // The design rationale of section 2.5: STL (robust) beats the naive
  // model when bursts of outliers are present.
  auto syn = make_synthetic(12, 24, 0.3, 10);
  for (int i = 140; i < 145; ++i) syn.y[static_cast<std::size_t>(i)] += 50.0;
  StlOptions opt;
  opt.period = 24;
  opt.outer_iterations = 2;
  const auto stl = stl_decompose(syn.y, opt);
  const auto naive = naive_decompose(syn.y, 24);
  double err_stl = 0.0, err_naive = 0.0;
  for (int i = 130; i < 155; ++i) {
    err_stl += std::abs(stl.trend[static_cast<std::size_t>(i)] -
                        syn.trend[static_cast<std::size_t>(i)]);
    err_naive += std::abs(naive.trend[static_cast<std::size_t>(i)] -
                          syn.trend[static_cast<std::size_t>(i)]);
  }
  EXPECT_LT(err_stl, err_naive);
}

TEST(Naive, RejectsShortSeries) {
  std::vector<double> y(10, 1.0);
  EXPECT_THROW(naive_decompose(y, 24), std::invalid_argument);
  EXPECT_THROW(naive_decompose(y, 1), std::invalid_argument);
}

}  // namespace
}  // namespace diurnal::analysis
