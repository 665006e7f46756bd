// Tests for the two-sided CUSUM change-point detector.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cusum.h"
#include "util/rng.h"

namespace diurnal::analysis {
namespace {

std::vector<double> step_series(int n, int change_at, double before,
                                double after, double noise,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        (i < change_at ? before : after) + rng.normal(0, noise);
  }
  return x;
}

TEST(Cusum, DetectsDownStep) {
  const auto x = step_series(400, 200, 1.0, -1.0, 0.02, 1);
  const auto r = cusum_detect(x, CusumOptions{1.0, 0.001});
  ASSERT_FALSE(r.changes.empty());
  const auto& c = r.changes.front();
  EXPECT_EQ(c.direction, ChangeDirection::kDown);
  EXPECT_NEAR(static_cast<double>(c.alarm), 200.0, 20.0);
  EXPECT_LE(c.start, c.alarm);
  EXPECT_LE(c.alarm, c.end);
  EXPECT_LT(c.amplitude, -1.0);
}

TEST(Cusum, DetectsUpStep) {
  const auto x = step_series(400, 150, 0.0, 2.0, 0.02, 2);
  const auto r = cusum_detect(x, CusumOptions{1.0, 0.001});
  ASSERT_FALSE(r.changes.empty());
  EXPECT_EQ(r.changes.front().direction, ChangeDirection::kUp);
  EXPECT_NEAR(static_cast<double>(r.changes.front().alarm), 150.0, 20.0);
}

TEST(Cusum, SilentOnFlatSeries) {
  std::vector<double> x(500, 3.0);
  const auto r = cusum_detect(x, CusumOptions{1.0, 0.001});
  EXPECT_TRUE(r.changes.empty());
}

TEST(Cusum, SilentOnSmallNoise) {
  util::Xoshiro256 rng(3);
  std::vector<double> x(500);
  for (auto& v : x) v = rng.normal(0.0, 0.05);
  const auto r = cusum_detect(x, CusumOptions{1.0, 0.01});
  EXPECT_TRUE(r.changes.empty());
}

TEST(Cusum, DriftSuppressesSlowRamp) {
  // A ramp slower than the drift accumulates nothing.
  std::vector<double> x(1000);
  for (int i = 0; i < 1000; ++i) x[static_cast<std::size_t>(i)] = i * 0.0005;
  const auto slow = cusum_detect(x, CusumOptions{1.0, 0.001});
  EXPECT_TRUE(slow.changes.empty());
  // The same ramp with no drift eventually alarms.
  const auto nodrift = cusum_detect(x, CusumOptions{0.2, 0.0});
  EXPECT_FALSE(nodrift.changes.empty());
}

TEST(Cusum, DetectsBothChangesOfAPair) {
  // Down then up (an outage signature).
  std::vector<double> x;
  for (int i = 0; i < 200; ++i) x.push_back(1.0);
  for (int i = 0; i < 60; ++i) x.push_back(-1.5);
  for (int i = 0; i < 200; ++i) x.push_back(1.0);
  const auto r = cusum_detect(x, CusumOptions{1.0, 0.001});
  ASSERT_GE(r.changes.size(), 2u);
  EXPECT_EQ(r.changes[0].direction, ChangeDirection::kDown);
  EXPECT_EQ(r.changes[1].direction, ChangeDirection::kUp);
  EXPECT_GT(r.changes[1].start, r.changes[0].alarm);
}

TEST(Cusum, CumulativeSumsExported) {
  const auto x = step_series(100, 50, 0.0, -2.0, 0.0, 4);
  const auto r = cusum_detect(x, CusumOptions{5.0, 0.001});
  ASSERT_EQ(r.g_pos.size(), x.size());
  ASSERT_EQ(r.g_neg.size(), x.size());
  EXPECT_DOUBLE_EQ(r.g_pos[0], 0.0);
  // The negative accumulator rises right after the drop.
  EXPECT_GT(r.g_neg[55], r.g_neg[40]);
}

TEST(Cusum, EmptyAndTinyInputs) {
  EXPECT_TRUE(cusum_detect({}).changes.empty());
  const std::vector<double> one{1.0};
  EXPECT_TRUE(cusum_detect(one).changes.empty());
}

// Property sweep: the detector finds a unit step across thresholds and
// noise levels, with alarm delay growing with threshold.
class CusumSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CusumSweep, FindsUnitStep) {
  const auto [threshold, noise] = GetParam();
  const auto x = step_series(600, 300, 0.5, -1.5, noise, 17);
  const auto r = cusum_detect(x, CusumOptions{threshold, 0.001});
  bool found = false;
  for (const auto& c : r.changes) {
    if (c.direction == ChangeDirection::kDown &&
        std::llabs(static_cast<long long>(c.alarm) - 300) < 60) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "threshold " << threshold << " noise " << noise;
}

// Thresholds stay below the 2.0 step size: CUSUM accumulates successive
// differences, so a noiseless step contributes exactly its height and a
// threshold above it can never fire.
INSTANTIATE_TEST_SUITE_P(
    ThresholdNoise, CusumSweep,
    ::testing::Combine(::testing::Values(0.5, 1.0, 1.8),
                       ::testing::Values(0.0, 0.05, 0.2)));

}  // namespace
}  // namespace diurnal::analysis
