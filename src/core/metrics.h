// End-to-end validation metrics (paper sections 3.6 and 3.7):
// sampled change-sensitive blocks are scored against ground-truth
// work-from-home dates; a detection counts when a downward CUSUM change
// lands within +-4 days of the documented date.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "sim/world.h"

namespace diurnal::core {

/// num/denom as a double, or nullopt when the denominator is zero.  The
/// shared guard for precision/recall-style rates: an empty sample must
/// surface as "undefined", never as 0/0 quietly becoming NaN (or a
/// misleading 0.0) and propagating through aggregate arithmetic.
inline std::optional<double> safe_ratio(std::int64_t num,
                                        std::int64_t denom) noexcept {
  if (denom == 0) return std::nullopt;
  return static_cast<double>(num) / static_cast<double>(denom);
}

/// The paper's +-4-day match (section 3.6), inclusive: a detection
/// exactly four days from its truth still matches.  This scorer and the
/// validate harness's matcher both read it.
inline constexpr std::int64_t kMatchWindow = 4 * util::kSecondsPerDay;

/// Whether detections annotated low_evidence (degraded mode) may score.
/// They never do: a down/up excursion overlapping an observer coverage
/// gap is more likely the fleet failing than people moving, so counting
/// it as a match would let faults buy precision.  Both scorers tally
/// them apart instead.
inline constexpr bool kTrustLowEvidence = false;

/// Verdict for one sampled block (mirrors the rows of Table 5).
enum class BlockVerdict {
  kNoWfhInWindow,        ///< no documented WFH date in the quarter
  kTruePositive,         ///< CUSUM down-change within the match window
  kFalsePositiveOutage,  ///< detection near the date, but truth is an outage
  kFalseNegative,        ///< truth changed, CUSUM missed it
  kCusumFarFromWfh,      ///< detections exist, none near the WFH date
  kNoCusum,              ///< no detections at all (and no truth change)
};

std::string_view to_string(BlockVerdict v) noexcept;

struct ValidationConfig {
  int sample_size = 50;
  std::uint64_t seed = 17;
  /// Analysis window used to decide whether a country's WFH date falls
  /// inside the studied quarter; both 0 disables the check.
  probe::ProbeWindow window{};
};

struct SampledBlock {
  net::BlockId id{};
  std::string country;
  BlockVerdict verdict = BlockVerdict::kNoCusum;
  std::int64_t detection_offset_days = 0;  ///< alarm - truth, when matched
  int low_evidence_changes = 0;  ///< detections excluded as low-evidence
  bool low_confidence = false;   ///< block classification was annotated
};

/// Table 5-style tally over a random sample of change-sensitive blocks.
struct SampleValidation {
  std::vector<SampledBlock> blocks;
  int total = 0;
  int no_wfh_in_window = 0;
  int wfh_in_window = 0;
  int cusum_near_wfh = 0;   ///< detections within the window (TP + FP)
  int true_positive = 0;
  int false_positive = 0;   ///< apparent outages near the date
  int no_cusum_near = 0;
  int false_negative = 0;   ///< visually detectable but missed
  int cusum_far = 0;
  int no_cusum = 0;
  /// Degraded-mode accounting: detections excluded because their
  /// evidence window overlapped a coverage gap, and sampled blocks whose
  /// classification carried the low-confidence annotation.
  int low_evidence_changes = 0;
  int low_confidence_blocks = 0;

  /// nullopt when no detection landed near a WFH date (nothing to be
  /// precise about) — callers must not fold that into a 0% rate.
  std::optional<double> precision() const noexcept {
    return safe_ratio(true_positive, true_positive + false_positive);
  }
  /// nullopt when the sample holds no ground-truth change.
  std::optional<double> recall() const noexcept {
    return safe_ratio(true_positive, true_positive + false_negative);
  }
};

/// Randomly samples change-sensitive blocks from a fleet result and
/// scores their detections against the world's ground truth.
SampleValidation validate_sample(const sim::World& world,
                                 const FleetResult& fleet,
                                 const ValidationConfig& config = {});

/// Location-level validation (section 3.7): all sampled blocks of one
/// gridcell, plus the day with the most simultaneous down-changes.
struct LocationValidation {
  geo::GridCell cell{};
  std::string label;
  SampleValidation sample;
  util::SimTime peak_day = 0;       ///< day with most down-changes
  int peak_down_count = 0;
  double peak_down_fraction = 0.0;  ///< of sampled blocks
};

LocationValidation validate_location(const sim::World& world,
                                     const FleetResult& fleet,
                                     geo::GridCell cell,
                                     const ValidationConfig& config = {});

}  // namespace diurnal::core
