// Civil-date arithmetic for the simulation timeline.
//
// All experiments in the paper are anchored to real calendar dates
// (2019-10-01 through 2023-06-30).  We model simulation time as seconds
// since the epoch 2019-10-01 00:00 UTC and convert exactly to and from
// proleptic-Gregorian civil dates using Howard Hinnant's algorithms.
#pragma once

#include <cstdint>
#include <string>

namespace diurnal::util {

/// A civil (proleptic Gregorian) calendar date.
struct Date {
  int year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend bool operator==(const Date&, const Date&) = default;
};

/// Days since 1970-01-01 for a civil date (valid over all int years).
std::int64_t days_from_civil(const Date& d) noexcept;

/// Inverse of days_from_civil.
Date civil_from_days(std::int64_t z) noexcept;

/// Day of week for a civil date: 0 = Sunday .. 6 = Saturday.
int weekday(const Date& d) noexcept;

/// True for Saturday or Sunday.
bool is_weekend(const Date& d) noexcept;

/// Formats as "YYYY-MM-DD".
std::string to_string(const Date& d);

/// Parses "YYYY-MM-DD"; throws std::invalid_argument on malformed input.
Date parse_date(const std::string& s);

// ---------------------------------------------------------------------------
// Simulation timeline.
// ---------------------------------------------------------------------------

/// Seconds since the simulation epoch, 2019-10-01 00:00:00 UTC.
using SimTime = std::int64_t;

inline constexpr std::int64_t kSecondsPerDay = 86'400;
inline constexpr std::int64_t kSecondsPerHour = 3'600;

/// Trinocular probing-round length (11 minutes), paper section 2.2.
inline constexpr std::int64_t kRoundSeconds = 660;

/// Rounds per (UTC) day: 86400 / 660 is not integral; the fleet uses
/// round indices and converts through seconds, so no drift accumulates.
inline constexpr double kRoundsPerDay =
    static_cast<double>(kSecondsPerDay) / static_cast<double>(kRoundSeconds);

/// Parses a duration: "1d", "6h", "90m", "660s", or bare seconds.
/// Throws std::invalid_argument unless it is a positive count with at
/// most one unit letter.
std::int64_t parse_duration(const std::string& s);

/// The simulation epoch as a civil date.
inline constexpr Date kEpochDate{2019, 10, 1};

/// Days since 1970-01-01 of the simulation epoch.
std::int64_t epoch_days() noexcept;

/// SimTime (seconds) of midnight UTC on the given civil date.
SimTime time_of(const Date& d) noexcept;

/// Convenience: SimTime of midnight UTC on year-month-day.
SimTime time_of(int year, int month, int day) noexcept;

/// Civil date containing a SimTime (UTC).
Date date_of(SimTime t) noexcept;

/// Whole days since the simulation epoch (floor).
std::int64_t day_index(SimTime t) noexcept;

/// Hour of day 0..23 (UTC).
int hour_of_day(SimTime t) noexcept;

/// Day of week of a SimTime: 0 = Sunday .. 6 = Saturday.
int weekday_of(SimTime t) noexcept;

/// Formats a SimTime as "YYYY-MM-DD HH:MM".
std::string to_string_time(SimTime t);

}  // namespace diurnal::util
