// Golden accuracy baselines (VALIDATE_baseline.json).
//
// The checked-in baseline pins, per scenario, the fleet digest and the
// full scorecard — match counts exactly, derived rates under an
// epsilon.  Counts are exact because every scenario is seeded and the
// pipeline is bit-deterministic: a count moving by one IS a behavior
// change and must be reviewed (then re-recorded with
// diurnal_validate --update-baseline).  Rates are epsilon-compared so
// the file's decimal rendering never causes a spurious failure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "validate/scorecard.h"

namespace diurnal::validate {

/// One scenario's recorded golden results.
struct ScenarioRecord {
  std::string digest;  ///< 16-digit hex fleet digest
  Scorecard score;
  // Rates as recorded in the file (recomputed values are epsilon-gated
  // against these).
  std::optional<double> precision;
  std::optional<double> recall;
  std::optional<double> f1;
  std::optional<double> mean_abs_latency_days;
};

/// Builds a record from a fresh scorecard + digest (rates derived).
ScenarioRecord make_record(const Scorecard& score, std::uint64_t digest);

struct Baseline {
  std::int64_t match_window_days = core::kMatchWindow / util::kSecondsPerDay;
  /// Insertion-ordered, matching catalog order.
  std::vector<std::pair<std::string, ScenarioRecord>> scenarios;

  const ScenarioRecord* find(std::string_view name) const;
};

/// Serializes a baseline document (stable field order, so regenerated
/// files diff cleanly).
std::string to_json(const Baseline& b);

/// Parses a baseline document produced by to_json.  Throws
/// std::runtime_error on malformed input or missing fields.
Baseline parse_baseline(const std::string& text);

/// One field-level deviation from the baseline.
struct Mismatch {
  std::string scenario;
  std::string field;
  std::string expected;
  std::string actual;
};

/// Compares current results against the baseline: scenario sets must
/// agree, integer counts and digests exactly, rates within
/// rate_epsilon (nullopt must stay nullopt).  `only` restricts the
/// check to one scenario name (empty = all).
std::vector<Mismatch> compare_to_baseline(const Baseline& baseline,
                                          const Baseline& current,
                                          double rate_epsilon = 1e-9,
                                          std::string_view only = {});

}  // namespace diurnal::validate
