// Unit and property tests for util: civil dates, the simulation
// timeline, deterministic RNG, time series, and formatting.
#include <gtest/gtest.h>

#include <cmath>

#include "util/csv.h"
#include "util/date.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timeseries.h"

namespace diurnal::util {
namespace {

TEST(Date, KnownDays) {
  EXPECT_EQ(days_from_civil(Date{1970, 1, 1}), 0);
  EXPECT_EQ(days_from_civil(Date{1970, 1, 2}), 1);
  EXPECT_EQ(days_from_civil(Date{1969, 12, 31}), -1);
  EXPECT_EQ(days_from_civil(Date{2000, 3, 1}), 11017);
}

TEST(Date, RoundTripAcrossYears) {
  for (std::int64_t z = days_from_civil(Date{2019, 1, 1});
       z <= days_from_civil(Date{2024, 12, 31}); ++z) {
    const Date d = civil_from_days(z);
    EXPECT_EQ(days_from_civil(d), z) << to_string(d);
  }
}

TEST(Date, LeapYears) {
  EXPECT_EQ(civil_from_days(days_from_civil(Date{2020, 2, 29})),
            (Date{2020, 2, 29}));
  // 2020-02-28 + 1 day = 02-29; 2019-02-28 + 1 = 03-01.
  EXPECT_EQ(civil_from_days(days_from_civil(Date{2020, 2, 28}) + 1),
            (Date{2020, 2, 29}));
  EXPECT_EQ(civil_from_days(days_from_civil(Date{2019, 2, 28}) + 1),
            (Date{2019, 3, 1}));
}

TEST(Date, Weekday) {
  EXPECT_EQ(weekday(Date{2019, 10, 1}), 2);   // Tuesday
  EXPECT_EQ(weekday(Date{2020, 3, 15}), 0);   // Sunday (USC WFH began)
  EXPECT_EQ(weekday(Date{2020, 1, 20}), 1);   // Monday (MLK day)
  EXPECT_EQ(weekday(Date{2020, 3, 14}), 6);   // Saturday
}

TEST(Date, FormatParse) {
  EXPECT_EQ(to_string(Date{2020, 3, 5}), "2020-03-05");
  EXPECT_EQ(to_string(Date{987, 11, 30}), "0987-11-30");
}

TEST(Date, ParseDuration) {
  EXPECT_EQ(parse_duration("1d"), kSecondsPerDay);
  EXPECT_EQ(parse_duration("6h"), 6 * kSecondsPerHour);
  EXPECT_EQ(parse_duration("90m"), 90 * 60);
  EXPECT_EQ(parse_duration("660s"), 660);
  EXPECT_EQ(parse_duration("86400"), kSecondsPerDay);  // bare seconds
  for (const char* bad : {"", "0", "0d", "-5", "+5", "1x", "1dd", "d", " 5",
                          "999999999999999999d"}) {
    EXPECT_THROW(parse_duration(bad), std::invalid_argument) << bad;
  }
}

TEST(SimTimeline, EpochAnchors) {
  EXPECT_EQ(time_of(2019, 10, 1), 0);
  EXPECT_EQ(time_of(2019, 10, 2), kSecondsPerDay);
  EXPECT_EQ(date_of(0), kEpochDate);
  EXPECT_EQ(date_of(kSecondsPerDay - 1), kEpochDate);
  EXPECT_EQ(to_string(date_of(time_of(2020, 3, 15))), "2020-03-15");
}

TEST(SimTimeline, HourAndDayIndex) {
  const SimTime t = time_of(2020, 1, 10) + 13 * kSecondsPerHour + 120;
  EXPECT_EQ(hour_of_day(t), 13);
  EXPECT_EQ(day_index(t), days_from_civil(Date{2020, 1, 10}) - epoch_days());
  EXPECT_EQ(weekday_of(time_of(2020, 3, 15)), 0);
  EXPECT_EQ(to_string_time(t), "2020-01-10 13:02");
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowAndRange) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const auto v = rng.range(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(11);
  double sum = 0.0, ss = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    ss += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(Rng, PoissonMean) {
  Xoshiro256 rng(13);
  for (const double mean : {0.5, 3.0, 20.0, 50.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.poisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, ChanceEdges) {
  Xoshiro256 rng(15);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, DerivedSeedsIndependent) {
  const auto a = derive_seed(1, "alpha");
  const auto b = derive_seed(1, "beta");
  const auto c = derive_seed(2, "alpha");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_seed(1, "alpha"));
  EXPECT_NE(derive_seed(1, 5, 6, 7), derive_seed(1, 5, 7, 6));
}

TEST(TimeSeries, BasicAccessors) {
  TimeSeries s(100, 60, {1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.time_at(2), 220);
  EXPECT_EQ(s.end_time(), 280);
  EXPECT_THROW(TimeSeries(0, 0, {}), std::invalid_argument);
}

TEST(TimeSeries, DailyStats) {
  // Two days of hourly data: day 0 constant 5, day 1 ramping 0..23.
  std::vector<double> v(48);
  for (int i = 0; i < 24; ++i) v[static_cast<std::size_t>(i)] = 5;
  for (int i = 0; i < 24; ++i) v[static_cast<std::size_t>(24 + i)] = i;
  TimeSeries s(0, kSecondsPerHour, v);
  const auto days = s.daily_stats();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_DOUBLE_EQ(days[0].swing(), 0.0);
  EXPECT_DOUBLE_EQ(days[1].swing(), 23.0);
  EXPECT_DOUBLE_EQ(days[1].mean, 11.5);
  EXPECT_EQ(days[0].samples, 24);
}

TEST(TimeSeries, ZScore) {
  TimeSeries s(0, 1, {2, 4, 6, 8});
  const auto z = s.zscore();
  EXPECT_NEAR(z.mean(), 0.0, 1e-12);
  EXPECT_NEAR(z.stddev(), 1.0, 1e-12);
  const auto flat = TimeSeries(0, 1, {3, 3, 3}).zscore();
  for (std::size_t i = 0; i < flat.size(); ++i) EXPECT_EQ(flat[i], 0.0);
}

TEST(Table, AlignmentAndFormat) {
  TextTable t({"name", "count"});
  t.add_row({"alpha", "12"});
  t.add_row({"b", "3456"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  EXPECT_EQ(fmt_count(5173026), "5,173,026");
  EXPECT_EQ(fmt_count(-42), "-42");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_pct(0.931, 1), "93.1%");
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
}

TEST(Csv, Escaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// Property: date arithmetic is consistent with SimTime arithmetic.
class DateTimeProperty : public ::testing::TestWithParam<int> {};

TEST_P(DateTimeProperty, TimeOfMatchesDayIndex) {
  const int offset = GetParam();
  const SimTime t = static_cast<SimTime>(offset) * kSecondsPerDay;
  const Date d = date_of(t);
  EXPECT_EQ(time_of(d), t);
  EXPECT_EQ(day_index(t), offset);
  EXPECT_EQ(day_index(t + kSecondsPerDay - 1), offset);
}

INSTANTIATE_TEST_SUITE_P(DayOffsets, DateTimeProperty,
                         ::testing::Values(0, 1, 91, 92, 100, 182, 365, 366,
                                           457, 500, 730, 1000, 1278, 1365));

}  // namespace
}  // namespace diurnal::util
