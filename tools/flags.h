// Flag-value checks shared by the command-line tools.  Every value is
// checked when it is parsed, so a malformed one is a usage error — one
// line on stderr and exit status 2 — never an uncaught exception from
// deep inside a run.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "analysis/simd.h"
#include "core/datasets.h"
#include "fault/fault_plan.h"

namespace diurnal::tools {

/// Reports a rejected flag value and exits with status 2.
[[noreturn]] inline void bad_flag(const std::string& flag,
                                  const std::string& value,
                                  const std::string& why) {
  std::fprintf(stderr, "bad %s '%s': %s\n", flag.c_str(), value.c_str(),
               why.c_str());
  std::exit(2);
}

/// A decimal integer in [lo, hi] (no sign, no trailing characters).
inline std::uint64_t flag_uint(
    const std::string& flag, const std::string& value, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const char* const last = value.data() + value.size();
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(value.data(), last, n);
  if (ec != std::errc{} || end != last || n < lo || n > hi) {
    bad_flag(flag, value,
             "expected an integer in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
  }
  return n;
}

/// An int in [lo, hi] (--blocks 1, --threads 0).
inline int flag_int(const std::string& flag, const std::string& value, int lo,
                    int hi = std::numeric_limits<int>::max()) {
  return static_cast<int>(flag_uint(flag, value, static_cast<std::uint64_t>(lo),
                                    static_cast<std::uint64_t>(hi)));
}

/// resolve(value), where a std::logic_error (the library's rejection of
/// a malformed name, code or address) is a usage error.
template <class Resolve>
auto flag_value(const std::string& flag, const std::string& value,
                Resolve&& resolve) {
  try {
    return resolve(value);
  } catch (const std::logic_error& e) {
    bad_flag(flag, value, e.what());
  }
}

/// A dataset abbreviation whose period and observer sites both resolve.
inline core::DatasetSpec flag_dataset(const std::string& flag,
                                      const std::string& value) {
  return flag_value(flag, value, [](const std::string& abbr) {
    core::DatasetSpec ds = core::dataset(abbr);
    ds.observers();
    return ds;
  });
}

/// Exits 2 unless the DIURNAL_SIMD environment variable names a level
/// (analysis::simd::env_level()); called before any work.
inline void check_simd_env() {
  if (!analysis::simd::env_level()) {
    bad_flag("DIURNAL_SIMD", std::getenv("DIURNAL_SIMD"),
             "expected generic or scalar, or unset");
  }
}

/// A fault scenario name (fault::scenario_names()).
inline std::string flag_scenario(const std::string& flag,
                                 const std::string& value) {
  const auto& names = fault::scenario_names();
  if (std::find(names.begin(), names.end(), value) == names.end()) {
    bad_flag(flag, value, "unknown fault scenario (see `diurnal_cli faults`)");
  }
  return value;
}

}  // namespace diurnal::tools
