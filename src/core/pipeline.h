// End-to-end fleet pipeline: probe -> repair -> merge -> reconstruct ->
// classify -> extract trend -> detect changes, over every block of a
// world (paper Table 1), parallelized across blocks.
//
// Following section 3.4, classification can run on a short window (the
// paper uses 2020m1, before Covid skews the baseline) while detection
// runs over a longer one (2020h1).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/aggregate.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "core/detect.h"
#include "core/series_store.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "probe/loss_model.h"
#include "recon/block_recon.h"
#include "sim/world.h"

namespace diurnal::core {

struct FleetConfig {
  /// Detection dataset: probing window and observer set.
  DatasetSpec dataset;
  /// Classification dataset; defaults to `dataset` when unset.
  std::optional<DatasetSpec> classify_dataset;

  probe::LossModelConfig loss{};
  bool one_loss_repair = true;
  bool additional_observations = false;

  /// Observer fault plan (degraded mode).  The default empty plan is the
  /// healthy fleet: output is bit-identical to a run without the fault
  /// layer.  With a seeded plan the run stays deterministic across
  /// thread counts; classifications and detections whose evidence
  /// degrades are annotated rather than silently misreported.
  fault::FaultPlan faults{};

  ClassifierOptions classifier{};
  DetectorOptions detector{};
  recon::ReconOptions recon{};  ///< hourly sampling by default

  /// Run change detection on change-sensitive blocks.
  bool run_detection = true;

  int threads = 0;  ///< 0 = hardware concurrency

  /// Lanes of each worker's analysis batches (analysis/batch.h), for
  /// classification, detection and the provisional watch alike: 0 =
  /// full width (analysis::BatchAnalyzer::kMaxLanes), otherwise clamped
  /// to [1, kMaxLanes]; 1 runs one-lane batches through the same
  /// runtime-width kernels.  Results are bit-identical at every width
  /// (the batched kernels replicate the scalar arithmetic per lane).  No
  /// production caller sets it; tests use it to force narrow and ragged
  /// batches.
  int analysis_batch_width = 0;
};

struct BlockOutcome {
  net::BlockId id{};
  BlockClassification cls{};
  /// Detected changes (only populated for change-sensitive blocks when
  /// run_detection is set).
  std::vector<DetectedChange> changes;
};

struct FleetResult {
  FunnelCounts funnel{};                 ///< the Table 2 row
  std::vector<BlockOutcome> outcomes;    ///< aligned with world.blocks()
  /// Per-block coverage/trust accounting (blocks aligned with outcomes).
  fault::DegradationReport degradation{};
  /// Columnar per-block reconstructed series (rows aligned with
  /// outcomes).  Which rows are populated depends on the windows: on a
  /// single window every nonzero block's detection-window series is
  /// present; with split classification/detection windows only
  /// change-sensitive blocks reach the detection pass, so other rows
  /// have length 0.  Not hashed by the fleet digest.
  SeriesStore series;
};

/// Runs the pipeline over every block of the world.
FleetResult run_fleet(const sim::World& world, const FleetConfig& config);

/// One block's verdicts on the fleet's finish path, at width 1: a
/// one-job classify_blocks_batch(), then, for a change-sensitive block
/// with `run_detection` set, a one-lane BatchDetector, then the
/// low-evidence annotation.  On a single window, equal to the fleet's
/// outcome for a block observed as the fleet observes it (the outcome
/// id is left unset).
BlockOutcome analyze_block(const recon::ReconResult& recon,
                           const ClassifierOptions& classifier = {},
                           const DetectorOptions& detector = {},
                           bool run_detection = true);

/// Degraded-mode annotation: marks low_evidence on each change whose
/// evidence window overlaps one of `gaps` (with a day of slack), or on
/// every change when `evidence_fraction` fell below `evidence_floor`.
void annotate_low_evidence(std::vector<DetectedChange>& changes,
                           double evidence_fraction,
                           std::span<const recon::CoverageGap> gaps,
                           double evidence_floor);

/// Folds the changes of the change-sensitive blocks among `outcomes`
/// into `agg`; outcomes[i] is blocks[i]'s.
void add_changes(ChangeAggregator& agg,
                 std::span<const sim::BlockProfile> blocks,
                 std::span<const BlockOutcome> outcomes);

/// Aggregates a fleet result's activity changes by gridcell/continent
/// over the detection window.
ChangeAggregator aggregate_changes(const sim::World& world,
                                   const FleetResult& result,
                                   const FleetConfig& config);

}  // namespace diurnal::core
