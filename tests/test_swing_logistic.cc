// Tests for the daily-swing classifier and the logistic FBS-time model.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/logistic.h"
#include "analysis/swing.h"
#include "oracle.h"
#include "util/rng.h"

namespace diurnal::analysis {
namespace {

using util::DayStats;

// An hourly series from day 0 whose day i swings from 0 to swings[i].
std::vector<double> days_with_swings(const std::vector<double>& swings) {
  std::vector<double> out(swings.size() * 24, 0.0);
  for (std::size_t i = 0; i < swings.size(); ++i) out[i * 24 + 12] = swings[i];
  return out;
}

// The production swing kernel on an hourly series from t = 0.
SwingResult classify_swing(const std::vector<double>& hourly,
                           const SwingOptions& opt) {
  Workspace ws;
  return classify_swing(hourly, 0, util::kSecondsPerHour, opt, ws);
}

TEST(Swing, WideWeekQualifies) {
  // Five workdays of swing 10, a weekend of 0: 5 wide days in 7.
  const auto days =
      days_with_swings({10, 10, 10, 10, 10, 0, 0, 10, 10, 10, 10, 10, 0, 0});
  const auto r = classify_swing(days, SwingOptions{});
  EXPECT_TRUE(r.wide);
  EXPECT_EQ(r.best_window_wide, 5);
  EXPECT_DOUBLE_EQ(r.max_daily_swing, 10.0);
}

TEST(Swing, ThreeDayWeekendStillQualifies) {
  // The 4-of-7 rule tolerates 3-day holiday weekends (section 2.4).
  const auto days = days_with_swings({0, 10, 10, 10, 10, 0, 0});
  EXPECT_TRUE(classify_swing(days, SwingOptions{}).wide);
}

TEST(Swing, ThreeWideDaysDoNotQualify) {
  const auto days = days_with_swings({10, 10, 10, 0, 0, 0, 0, 10, 10, 10, 0, 0, 0, 0});
  EXPECT_FALSE(classify_swing(days, SwingOptions{}).wide);
}

TEST(Swing, BelowThresholdIsNarrow) {
  const auto days = days_with_swings(std::vector<double>(14, 4.0));
  const auto r = classify_swing(days, SwingOptions{});
  EXPECT_FALSE(r.wide);
  EXPECT_EQ(r.wide_days, 0);
}

TEST(Swing, ThresholdIsInclusive) {
  const auto days = days_with_swings(std::vector<double>(7, 5.0));
  EXPECT_TRUE(classify_swing(days, SwingOptions{}).wide);
}

TEST(Swing, GapDaysBreakWindows) {
  // 4 wide days, then a 10-day gap with no data, then 3 more: no single
  // calendar week holds 4.
  std::vector<DayStats> days;
  for (const int d : {0, 1, 2, 3}) {
    DayStats s;
    s.day = d;
    s.max = 10;
    days.push_back(s);
  }
  for (const int d : {14, 15, 16}) {
    DayStats s;
    s.day = d;
    s.max = 10;
    days.push_back(s);
  }
  // An hourly series covers every day, so only the per-day oracle can
  // hold days without samples.
  const auto r = oracle::classify_swing(days, SwingOptions{});
  EXPECT_TRUE(r.wide);  // the first 4 are within one 7-day window
  SwingOptions strict;
  strict.min_wide_days = 5;
  EXPECT_FALSE(oracle::classify_swing(days, strict).wide);
}

TEST(Swing, EmptyInput) {
  EXPECT_FALSE(classify_swing(std::vector<double>{}, SwingOptions{}).wide);
}

TEST(Swing, FromTimeSeries) {
  // Hourly series: 9-17h at 12 actives on the first five days of each
  // week, ~0 otherwise.
  std::vector<double> v;
  for (int day = 0; day < 14; ++day) {
    const bool work = day % 7 < 5;
    for (int h = 0; h < 24; ++h) {
      v.push_back(work && h >= 9 && h < 17 ? 12.0 : 0.0);
    }
  }
  const auto r = classify_swing(v, SwingOptions{});
  EXPECT_TRUE(r.wide);
  EXPECT_EQ(r.total_days, 14);
}

// Property sweep of the swing threshold (the paper picked s = 5 as the
// smallest value tolerating a few uncorrelated restarts).
class SwingThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(SwingThresholdSweep, MonotoneInThreshold) {
  const double threshold = GetParam();
  const auto days = days_with_swings({7, 7, 7, 7, 7, 0, 0});
  SwingOptions opt;
  opt.min_swing = threshold;
  const auto r = classify_swing(days, opt);
  EXPECT_EQ(r.wide, threshold <= 7.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SwingThresholdSweep,
                         ::testing::Values(1.0, 3.0, 5.0, 7.0, 8.0, 20.0));

// --- logistic regression ---

TEST(Logistic, SeparableData) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(0, 1);
    const double b = rng.uniform(0, 1);
    x.push_back({a, b});
    y.push_back(a + b > 1.0 ? 1 : 0);
  }
  LogisticModel m;
  m.fit(x, y);
  const auto metrics = evaluate(m, x, y);
  EXPECT_GT(metrics.accuracy(), 0.95);
  EXPECT_GT(metrics.precision(), 0.9);
  EXPECT_GT(metrics.recall(), 0.9);
}

TEST(Logistic, ProbabilitiesOrdered) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i >= 50 ? 1 : 0);
  }
  LogisticModel m;
  m.fit(x, y);
  EXPECT_LT(m.predict_proba(std::vector<double>{10.0}),
            m.predict_proba(std::vector<double>{90.0}));
  EXPECT_LT(m.predict_proba(std::vector<double>{0.0}), 0.2);
  EXPECT_GT(m.predict_proba(std::vector<double>{99.0}), 0.8);
}

TEST(Logistic, RejectsBadInput) {
  LogisticModel m;
  EXPECT_THROW(m.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(m.fit({{1.0}}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(m.fit({{1.0}, {1.0, 2.0}}, {1, 0}), std::invalid_argument);
  EXPECT_THROW(m.predict_proba(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Logistic, MetricsArithmetic) {
  BinaryMetrics m;
  m.tp = 13;
  m.fp = 1;
  m.fn = 5;
  m.tn = 30;
  EXPECT_NEAR(m.precision(), 13.0 / 14.0, 1e-12);
  EXPECT_NEAR(m.recall(), 13.0 / 18.0, 1e-12);
  EXPECT_NEAR(m.false_negative_rate(), 5.0 / 18.0, 1e-12);
  EXPECT_NEAR(m.accuracy(), 43.0 / 49.0, 1e-12);
}

}  // namespace
}  // namespace diurnal::analysis
