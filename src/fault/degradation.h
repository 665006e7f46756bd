// Degraded-mode accounting: how much should each answer be trusted?
//
// When observers fail, the pipeline still produces classifications and
// detections — the question becomes which of them rest on enough
// evidence.  The probe stage records what each observer actually
// delivered per block (ObserverStreamInfo), reconstruction measures
// effective coverage (hours since the last refresh, per paper section
// 2.8), and this module folds both into a per-block BlockDegradation and
// a fleet-level DegradationReport that rides alongside the funnel.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/inject.h"
#include "probe/prober.h"
#include "util/date.h"

namespace diurnal::fault {

/// What one observer actually delivered for one block.
struct ObserverStreamInfo {
  char code = '?';
  std::size_t observations = 0;  ///< after fault injection
  std::uint32_t first_rel = 0;   ///< valid when observations > 0
  std::uint32_t last_rel = 0;
  StreamFaultStats faults{};
};

/// Per-block degradation summary (aligned with FleetResult::outcomes).
struct BlockDegradation {
  int configured_observers = 0;  ///< 0 for never-probed blocks
  int live_observers = 0;        ///< delivered at least one observation
  /// Live observers whose stream started more than `partial_slack` after
  /// the window opened or ended more than `partial_slack` before it
  /// closed (late starters, early enders, mid-quarter vanishers).
  int partial_observers = 0;
  std::size_t dropped_observations = 0;
  std::size_t corrupted_observations = 0;
  /// Fraction of the reconstruction's samples with an observation inside
  /// the staleness horizon (recon::kStaleHorizon).
  double evidence_fraction = 1.0;
  double max_gap_hours = 0.0;  ///< longest span with no observation at all
  bool low_confidence = false;  ///< evidence_fraction below the floor

  bool degraded() const noexcept {
    return live_observers < configured_observers || partial_observers > 0 ||
           dropped_observations > 0 || corrupted_observations > 0 ||
           low_confidence;
  }
};

/// Fleet-level rollup.
struct DegradationReport {
  std::vector<BlockDegradation> blocks;  ///< aligned with world.blocks()
  std::int64_t probed_blocks = 0;        ///< blocks with configured observers
  std::int64_t degraded_blocks = 0;
  std::int64_t low_confidence_blocks = 0;
  std::int64_t blocks_missing_observers = 0;
  double mean_evidence_fraction = 1.0;  ///< over probed blocks

  /// Recomputes the tallies from `blocks` (never-probed slots excluded).
  void finalize();

  /// Copies a shard run's per-block rows into this report at `offset`
  /// (the shard's first global block index).  Rows only — call
  /// finalize() once every shard has been absorbed.
  void absorb_rows(const DegradationReport& shard, std::size_t offset);
};

/// Folds what the observers delivered and what reconstruction covered
/// into one block's degradation row.
BlockDegradation summarize_block(
    const std::vector<ObserverStreamInfo>& streams, int configured_observers,
    probe::ProbeWindow window, double evidence_fraction,
    double max_gap_seconds, double evidence_floor,
    util::SimTime partial_slack = 2 * util::kSecondsPerDay);

}  // namespace diurnal::fault
