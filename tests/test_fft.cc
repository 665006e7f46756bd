// Tests for the spectral tool (Goertzel DFT bins) and the diurnality test.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "analysis/diurnal_test.h"
#include "analysis/fft.h"
#include "analysis/stats.h"
#include "util/rng.h"

namespace diurnal::analysis {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Fft, PureToneConcentratesAtBin) {
  const std::size_t n = 512;
  std::vector<double> x(n);
  const double k = 19;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2 * kPi * k * static_cast<double>(i) / static_cast<double>(n));
  }
  std::size_t argmax = 0;
  double peak = goertzel_power(x, 0.0);
  for (std::size_t i = 1; i <= n / 2; ++i) {
    const double p = goertzel_power(x, static_cast<double>(i));
    if (p > peak) {
      argmax = i;
      peak = p;
    }
  }
  EXPECT_EQ(argmax, 19u);
}

TEST(Fft, ParsevalHolds) {
  util::Xoshiro256 rng(5);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.normal();
  double time_energy = 0.0;
  for (const double v : x) time_energy += v * v;
  // Every integer bin of the length-n DFT, read through Goertzel.
  double freq_energy = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    freq_energy += goertzel_power(x, static_cast<double>(k));
  }
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(x.size()),
              1e-6 * freq_energy);
}

TEST(Goertzel, MatchesFftBin) {
  util::Xoshiro256 rng(7);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.normal();
  const double n = static_cast<double>(x.size());
  for (const double k : {1.0, 5.0, 31.0, 100.0}) {
    // The DFT bin summed directly: X[k] = sum_t x[t] e^{-2 pi i k t / n}.
    std::complex<double> bin = 0.0;
    for (std::size_t t = 0; t < x.size(); ++t) {
      const double angle = -2 * kPi * k * static_cast<double>(t) / n;
      bin += x[t] * std::polar(1.0, angle);
    }
    EXPECT_NEAR(goertzel_power(x, k), std::norm(bin),
                1e-6 * (1.0 + std::norm(bin)))
        << "bin " << k;
  }
}

// --- the diurnality test ---

std::vector<double> sinusoid_days(int days, double samples_per_day,
                                  double period_hours, double amp,
                                  double noise, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const int n = static_cast<int>(days * samples_per_day);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double hours = 24.0 * static_cast<double>(i) / samples_per_day;
    x[static_cast<std::size_t>(i)] =
        10 + amp * std::sin(2 * kPi * hours / period_hours) + rng.normal(0, noise);
  }
  return x;
}

TEST(DiurnalTest, DetectsDailySinusoid) {
  const auto x = sinusoid_days(28, 24, 24.0, 5.0, 0.5, 1);
  const auto r = test_diurnal(x, 24);
  EXPECT_TRUE(r.diurnal);
  EXPECT_GT(r.power_ratio, 0.8);
}

TEST(DiurnalTest, RejectsWhiteNoise) {
  util::Xoshiro256 rng(2);
  std::vector<double> x(28 * 24);
  for (auto& v : x) v = rng.normal(10, 3);
  const auto r = test_diurnal(x, 24);
  EXPECT_FALSE(r.diurnal);
  EXPECT_LT(r.power_ratio, 0.15);
}

TEST(DiurnalTest, RejectsConstant) {
  std::vector<double> x(28 * 24, 7.0);
  EXPECT_FALSE(test_diurnal(x, 24).diurnal);
}

TEST(DiurnalTest, RejectsTooShort) {
  std::vector<double> x(30, 1.0);
  EXPECT_FALSE(test_diurnal(x, 24).diurnal);
}

TEST(DiurnalTest, DetectsHarmonicOnlySignal) {
  // A 12-hour period signal is a harmonic of the daily frequency.
  const auto x = sinusoid_days(28, 24, 12.0, 5.0, 0.5, 3);
  EXPECT_TRUE(test_diurnal(x, 24).diurnal);
}

TEST(DiurnalTest, DetectsWorkWeekSquareWave) {
  // 9-17h on weekdays only: strong daily energy with weekly sidebands.
  std::vector<double> x;
  for (int day = 0; day < 28; ++day) {
    const int wd = (day + 2) % 7;  // epoch is a Tuesday
    const bool workday = wd >= 1 && wd <= 5;
    for (int h = 0; h < 24; ++h) {
      x.push_back(workday && h >= 9 && h < 17 ? 15.0 : 2.0);
    }
  }
  const auto r = test_diurnal(x, 24);
  EXPECT_TRUE(r.diurnal) << "ratio " << r.power_ratio;
}

TEST(DiurnalTest, RejectsWeeklyOnlySignal) {
  // Flat within each day, varying only by day of week: no 24h energy.
  std::vector<double> x;
  for (int day = 0; day < 56; ++day) {
    const double level = ((day + 2) % 7 < 5) ? 10.0 : 2.0;
    for (int h = 0; h < 24; ++h) x.push_back(level);
  }
  const auto r = test_diurnal(x, 24);
  EXPECT_FALSE(r.diurnal) << "ratio " << r.power_ratio;
}

// Property sweep: detection holds across amplitudes and noise levels
// when the signal-to-noise ratio is reasonable.
class DiurnalSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DiurnalSweep, SinusoidPlusNoise) {
  const auto [amp, noise] = GetParam();
  const auto x = sinusoid_days(28, 24, 24.0, amp, noise, 11);
  const auto r = test_diurnal(x, 24);
  const double snr = amp * amp / (2.0 * noise * noise);
  if (snr > 1.0) {
    EXPECT_TRUE(r.diurnal) << "amp " << amp << " noise " << noise;
  } else if (snr < 0.2) {
    EXPECT_FALSE(r.diurnal) << "amp " << amp << " noise " << noise;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AmpNoise, DiurnalSweep,
    ::testing::Combine(::testing::Values(0.5, 2.0, 5.0, 10.0),
                       ::testing::Values(0.3, 1.0, 3.0, 8.0)));

TEST(Stats, MeanVarianceMedian) {
  const std::vector<double> x{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_DOUBLE_EQ(variance(x), 1.25);
  EXPECT_DOUBLE_EQ(median(x), 2.5);
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
}

TEST(Stats, Pearson) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> neg(y.rbegin(), y.rend());
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  const std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(pearson(x, c), 0.0);
}

TEST(Stats, Ecdf) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> t{0.5, 2.5, 5.0};
  const auto f = ecdf_at(x, t);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.4);
  EXPECT_DOUBLE_EQ(f[2], 1.0);
}

}  // namespace
}  // namespace diurnal::analysis
