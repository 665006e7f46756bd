// Aligned text tables for bench output (paper tables are reproduced as
// plain-text rows so they can be diffed between runs).
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace diurnal::util {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// Builds monospace tables like:
///
///   dataset        responsive   diurnal
///   -------------  ----------   -------
///   2020q1-w          5173026    399299
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Renders the full table, including a separator under the header.
  std::string to_string() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> align_;
};

/// Formats a double with the given number of decimals.
std::string fmt(double v, int decimals = 2);

/// Formats an integer with thousands separators ("5,173,026").
std::string fmt_count(std::int64_t v);

/// Formats a ratio as a percentage string ("93.0%").
std::string fmt_pct(double ratio, int decimals = 1);

/// Undefined-rate form: "n/a" for nullopt (zero-denominator rates).
std::string fmt_pct(std::optional<double> ratio, int decimals = 1);

}  // namespace diurnal::util
