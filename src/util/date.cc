#include "util/date.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace diurnal::util {

// Hinnant, "chrono-Compatible Low-Level Date Algorithms".
std::int64_t days_from_civil(const Date& d) noexcept {
  int y = d.year;
  const unsigned m = static_cast<unsigned>(d.month);
  const unsigned dd = static_cast<unsigned>(d.day);
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + dd - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

Date civil_from_days(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned dd = doy - (153 * mp + 2) / 5 + 1;              // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                    // [1, 12]
  return Date{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
              static_cast<int>(dd)};
}

int weekday(const Date& d) noexcept {
  const std::int64_t z = days_from_civil(d);
  return static_cast<int>(z >= -4 ? (z + 4) % 7 : (z + 5) % 7 + 6);
}

bool is_weekend(const Date& d) noexcept {
  const int wd = weekday(d);
  return wd == 0 || wd == 6;
}

std::string to_string(const Date& d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", d.year, d.month, d.day);
  return buf;
}

Date parse_date(const std::string& s) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3 || m < 1 || m > 12 ||
      d < 1 || d > 31) {
    throw std::invalid_argument("parse_date: malformed date '" + s + "'");
  }
  return Date{y, m, d};
}

std::int64_t parse_duration(const std::string& s) {
  const char* const last = s.data() + s.size();
  std::int64_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), last, n);
  std::int64_t scale = 0;
  if (ec == std::errc{} && last - end <= 1) {
    switch (end == last ? 's' : *end) {
      case 'd': scale = kSecondsPerDay; break;
      case 'h': scale = kSecondsPerHour; break;
      case 'm': scale = 60; break;
      case 's': scale = 1; break;
      default: break;
    }
  }
  if (scale == 0 || n <= 0 || n > INT64_MAX / scale) {
    throw std::invalid_argument("parse_duration: malformed duration '" + s +
                                "' (use e.g. 1d, 6h, 660s)");
  }
  return n * scale;
}

std::int64_t epoch_days() noexcept { return days_from_civil(kEpochDate); }

SimTime time_of(const Date& d) noexcept {
  return (days_from_civil(d) - epoch_days()) * kSecondsPerDay;
}

SimTime time_of(int year, int month, int day) noexcept {
  return time_of(Date{year, month, day});
}

Date date_of(SimTime t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  if (t < 0 && t % kSecondsPerDay != 0) --days;  // floor toward -inf
  return civil_from_days(epoch_days() + days);
}

std::int64_t day_index(SimTime t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  if (t < 0 && t % kSecondsPerDay != 0) --days;
  return days;
}

int hour_of_day(SimTime t) noexcept {
  std::int64_t sec = t % kSecondsPerDay;
  if (sec < 0) sec += kSecondsPerDay;
  return static_cast<int>(sec / kSecondsPerHour);
}

int weekday_of(SimTime t) noexcept { return weekday(date_of(t)); }

std::string to_string_time(SimTime t) {
  const Date d = date_of(t);
  std::int64_t sec = t % kSecondsPerDay;
  if (sec < 0) sec += kSecondsPerDay;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d", d.year, d.month,
                d.day, static_cast<int>(sec / 3600),
                static_cast<int>((sec % 3600) / 60));
  return buf;
}

}  // namespace diurnal::util
