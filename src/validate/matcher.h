// Truth matching for the accuracy-validation harness.
//
// The paper's validation (sections 3.6, 3.7, Table 5) scores detected
// CUSUM changes against documented event dates: a detection counts when
// it lands within +-4 days of the ground truth.  Here the ground truth
// is exact — the scenario worlds plant their event calendars — so the
// harness enumerates every planted change instant per block and matches
// detections to them greedily, one-to-one, direction-aware.  Everything
// downstream (scorecards, golden baselines, CI gates) rests on this
// matching rule staying fixed.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/detect.h"
#include "core/metrics.h"
#include "probe/prober.h"
#include "sim/block_profile.h"
#include "util/date.h"

namespace diurnal::validate {

/// Event classes scored separately (each gets its own recall/latency
/// column in the scorecard).
enum class TruthClass : std::uint8_t {
  kWfhOnset,    ///< WFH order empties an office/university/mixed block
  kHolidayDip,  ///< bounded holiday dip (and its recovery)
  kCurfew,      ///< curfew/unrest stay-home period (geo-scoped)
  kHomeShift,   ///< WFH *raises* daytime presence on home-dynamic blocks
  kOccupancy,   ///< occupancy churn: block vacated or newly populated
};

inline constexpr std::size_t kNumTruthClasses = 5;

std::string_view to_string(TruthClass c) noexcept;

/// Truth earlier than this lead from the window start is not scored:
/// STL/CUSUM need a seasonal baseline before an onset can register, so a
/// day-two event would count as a miss without measuring the detector.
inline constexpr std::int64_t kMinTruthLead = 7 * util::kSecondsPerDay;

/// Bounded dips at least this long also plant their recovery (the
/// opposite-direction instant at the dip's end), so the up-change a
/// holiday's end produces is truth, not a false positive.  Shorter dips
/// recover inside the outage-pair filter's reach.
inline constexpr std::int64_t kRecoveryMinDuration = 3 * util::kSecondsPerDay;

/// One planted change instant a detector should find.
struct TruthInstance {
  util::SimTime at = 0;
  analysis::ChangeDirection direction = analysis::ChangeDirection::kDown;
  TruthClass cls = TruthClass::kWfhOnset;
};

/// Enumerates the planted truth of one block inside the probing window,
/// sorted by time: suppression onsets (down, or up for home blocks under
/// WFH), recoveries of long dips, vacate instants, and occupancy-window
/// boundaries.  Instants outside [start + kMinTruthLead,
/// end - core::kMatchWindow] are omitted, as are suppressions starting
/// while the block was unoccupied.  Whole-block outages and renumbering
/// are NOT truth — the pipeline must discard those as paired excursions.
std::vector<TruthInstance> planted_truth(const sim::BlockProfile& block,
                                         probe::ProbeWindow window);

/// Greedy one-to-one matching of detections to truth.
struct MatchResult {
  struct Pair {
    std::size_t truth = 0;       ///< index into the truth span
    std::size_t change = 0;      ///< index into the changes span
    std::int64_t offset = 0;     ///< alarm - truth time (signed seconds)
  };
  std::vector<Pair> matched;                  ///< one entry per true positive
  std::vector<std::size_t> unmatched_truth;   ///< false negatives
  std::vector<std::size_t> unmatched_changes; ///< confirmed but unexplained
  int low_evidence_excluded = 0;  ///< confirmed changes skipped as untrusted
  int outage_discards = 0;        ///< changes the pair filter discarded
  /// Confirmed changes alarming before the warm-up cutoff (see
  /// match_block): cold-start artifacts, set aside rather than scored.
  int warmup_excluded = 0;
};

/// Matches confirmed (counted, trusted) detections against planted
/// truth.  Truth instances are visited in time order; each takes the
/// nearest unmatched same-direction detection within +-core::kMatchWindow
/// (ties: earlier alarm).  A detection matches at most one truth and
/// vice versa, so a single alarm can never satisfy two planted events.
///
/// `warmup_until` (0 = disabled) is the cold-start cutoff: truth is only
/// eligible from window.start + kMinTruthLead, so an alarm before
/// (that - core::kMatchWindow) can never match any truth and measures the
/// detector's cold start (no seasonal baseline yet) rather than its
/// steady-state precision.  Such alarms are tallied as warmup_excluded
/// instead of false positives — and pinned in the golden baseline, so a
/// regression in cold-start behaviour still fails the gate.
MatchResult match_block(std::span<const TruthInstance> truth,
                        std::span<const core::DetectedChange> changes,
                        util::SimTime warmup_until = 0);

}  // namespace diurnal::validate
