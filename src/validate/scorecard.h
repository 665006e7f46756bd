// Precision/recall/latency accounting over matched planted truth.
//
// A Scorecard aggregates per-block match results across a fleet run:
// per event class (WFH onset, holiday dip, curfew, home shift,
// occupancy) it tallies planted truth, matches, and misses plus
// detection latency; fleet-wide it tracks false positives (split into
// outage artifacts vs unexplained), the outage-pair-discard funnel, and
// degraded-mode exclusions.  Rates are derived through
// core::safe_ratio, so zero-denominator cases surface as nullopt
// instead of NaN.  Equality is integer-exact — the batch≡streaming and
// thread-count metamorphic gates compare whole cards.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/metrics.h"
#include "core/pipeline.h"
#include "sim/world.h"
#include "validate/matcher.h"

namespace diurnal::validate {

/// Tally for one event class.
struct ClassTally {
  int truth = 0;    ///< planted instances eligible for matching
  int matched = 0;  ///< true positives
  int missed = 0;   ///< false negatives
  std::int64_t abs_latency_sum = 0;  ///< seconds, over matched instances

  std::optional<double> recall() const noexcept {
    return core::safe_ratio(matched, truth);
  }
  std::optional<double> mean_abs_latency_days() const noexcept {
    const auto r = core::safe_ratio(abs_latency_sum, matched);
    if (!r) return std::nullopt;
    return *r / static_cast<double>(util::kSecondsPerDay);
  }

  friend bool operator==(const ClassTally&, const ClassTally&) = default;
};

struct Scorecard {
  std::array<ClassTally, kNumTruthClasses> classes{};

  int blocks_scored = 0;    ///< change-sensitive blocks matched
  int false_positive = 0;   ///< confirmed changes matching no truth
  /// Subset of false_positive sitting within the match window of a
  /// planted whole-block outage or renumbering: the pair filter leaked.
  int fp_outage_artifact = 0;
  /// Planted outage/renumbering instants inside the window on scored
  /// blocks — what the pair filter was supposed to neutralize.
  int outage_pairs_planted = 0;
  int outage_discards = 0;        ///< detections filtered as outage pairs
  int low_evidence_excluded = 0;  ///< confirmed changes skipped (degraded)
  /// Confirmed changes alarming before the earliest instant any eligible
  /// truth could match (window.start + kMinTruthLead - kMatchWindow):
  /// cold-start artifacts, tallied instead of counted as false
  /// positives but still pinned by the golden baseline.
  int warmup_excluded = 0;
  /// Planted truth on diurnal-category blocks the classifier did not
  /// pass to detection — recall lost to classification, kept visible.
  int truth_outside_detection = 0;

  ClassTally& of(TruthClass c) { return classes[static_cast<std::size_t>(c)]; }
  const ClassTally& of(TruthClass c) const {
    return classes[static_cast<std::size_t>(c)];
  }

  int truth_total() const noexcept;
  int true_positive() const noexcept;
  int false_negative() const noexcept;

  std::optional<double> precision() const noexcept {
    return core::safe_ratio(true_positive(), true_positive() + false_positive);
  }
  std::optional<double> recall() const noexcept {
    return core::safe_ratio(true_positive(), truth_total());
  }
  /// Harmonic mean of precision and recall; nullopt when either is
  /// undefined or their sum is zero.
  std::optional<double> f1() const noexcept;
  std::optional<double> mean_abs_latency_days() const noexcept;

  friend bool operator==(const Scorecard&, const Scorecard&) = default;
};

/// One diagnostic record for the tool's --explain mode: anything on a
/// scored block that did not pair up cleanly with the planted truth.
struct ExplainEntry {
  enum class What : std::uint8_t {
    kFalsePositive,  ///< confirmed change matching no truth
    kMissedTruth,    ///< planted truth no detection matched
    kDiscarded,      ///< change the outage-pair filter removed
    kLowEvidence,    ///< confirmed change excluded as untrusted
    kWarmup,         ///< confirmed change inside the cold-start window
  };
  net::BlockId id{};
  sim::BlockCategory category = sim::BlockCategory::kUnused;
  What what = What::kFalsePositive;
  util::SimTime at = 0;  ///< alarm (for changes) or planted instant (truth)
  analysis::ChangeDirection direction = analysis::ChangeDirection::kDown;
  double amplitude_addresses = 0.0;        ///< 0 for truth entries
  TruthClass cls = TruthClass::kWfhOnset;  ///< truth entries only
  bool near_artifact = false;  ///< within the window of a planted outage
};

std::string_view to_string(ExplainEntry::What w) noexcept;

/// Scores one block's outcome into the card.  Change-sensitive blocks
/// are matched; diurnal blocks the classifier rejected only contribute
/// truth_outside_detection.  `explain`, when non-null, collects one
/// entry per miss, false positive, discard, and exclusion.
void score_block(const sim::BlockProfile& block,
                 const core::BlockOutcome& outcome, probe::ProbeWindow window,
                 Scorecard& card, std::vector<ExplainEntry>* explain = nullptr);

/// Scores a whole fleet result against the world's planted truth.
Scorecard score_fleet(const sim::World& world, const core::FleetResult& fleet,
                      probe::ProbeWindow window,
                      std::vector<ExplainEntry>* explain = nullptr);

}  // namespace diurnal::validate
