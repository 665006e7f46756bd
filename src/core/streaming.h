// Streaming fleet engine: the staged, round-by-round pipeline over a
// whole world.  One implementation serves both drives:
//
//   * advance_to()/finalize() — the incremental drive.  Rounds are
//     ingested epoch by epoch across every block; each advance returns
//     an EpochReport with delivery counts, classification progress, and
//     *provisional* change alarms (trailing-window STL + online CUSUM
//     over the stable emitted-sample prefix).  finalize() then produces
//     the authoritative FleetResult — the per-block state machines
//     guarantee that any advance schedule finalizes to the same bytes.
//
//   * run_to_completion() — the batch drive, which is finalize() on an
//     engine that never advanced: each worker runs one block's pass
//     start-to-finish and keeps no per-block state.  run_fleet() is a
//     thin wrapper over this.
//
// When classification has its own window (split windows), every block
// is classified by a dedicated classification-window pass: the batch
// drive's as it reaches the block, the incremental drive's in the epoch
// that completes that window.  Only change-sensitive blocks then get a
// detection-window series.  Both drives reach their verdicts through
// one per-worker finish queue: batched classification, then batched
// detection of change-sensitive blocks.
//
// Provisional vs authoritative: epoch alarms are early warnings, not
// detections.  They z-normalize with running statistics and freeze the
// trend as first estimated (the trailing STL's rightmost values, where
// the fit is least stable), so they can lead, lag, or miss the final
// verdict; only finalize()'s full-window detection is comparable across
// runs and hashed by the fleet digest.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/cusum.h"
#include "core/pipeline.h"
#include "core/series_store.h"
#include "recon/stream.h"

namespace diurnal::core {

/// An early-warning change alarm surfaced by the incremental drive.
struct ProvisionalChange {
  net::BlockId id{};
  util::SimTime start = 0;  ///< where the accumulator left zero
  util::SimTime alarm = 0;  ///< threshold crossing
  util::SimTime end = 0;    ///< excursion peak
  analysis::ChangeDirection direction = analysis::ChangeDirection::kDown;
  /// Excursion amplitude under the running normalization (z-units);
  /// not comparable to DetectedChange::amplitude.
  double amplitude = 0.0;
};

/// What one advance_to() call produced.
struct EpochReport {
  std::size_t epoch_index = 0;
  util::SimTime epoch_start = 0;  ///< previous high-water mark
  util::SimTime epoch_end = 0;    ///< new high-water mark (clamped)
  /// Post-fault observations delivered across the fleet this epoch.
  std::size_t observations = 0;
  /// True once every block's classification verdict is final (the
  /// classification window has been fully ingested).  The funnel below
  /// is populated from that point on.
  bool classification_complete = false;
  FunnelCounts funnel{};
  /// Alarms confirmed this epoch, ordered by (alarm time, block id).
  std::vector<ProvisionalChange> provisional;
};

class StreamingFleet {
 public:
  /// Read-only per-block row extracted from the incremental drive for
  /// the query plane's epoch snapshots (core/snapshot_server.h).  Rows
  /// align with the engine's block span.
  struct BlockSnapshotRow {
    net::BlockId id{};
    bool begun = false;
    bool active = false;      ///< still ingesting rounds
    bool classified = false;  ///< cls/degradation below are authoritative
    bool watched = false;     ///< provisional detector runs on this block
    std::size_t delivered = 0;  ///< post-fault observations so far
    std::size_t emitted = 0;    ///< stable reconstructed samples so far
    /// Live coverage over the emitted prefix (mid-stream
    /// snapshot_stats); meaningful when emitted > 0.
    double evidence_fraction = 0.0;
    double max_gap_hours = 0.0;
    /// Mid-run verdicts: split windows publish them as soon as the
    /// classification window is ingested; a single window classifies at
    /// finalize, so these stay default until drain.
    BlockClassification cls{};
    fault::BlockDegradation degradation{};
  };
  /// Borrows `world` and `config` for the engine's lifetime.
  StreamingFleet(const sim::World& world, const FleetConfig& config)
      : StreamingFleet(std::span<const sim::BlockProfile>(world.blocks()),
                       config) {}

  /// Span form: drives any contiguous block population (a full world or
  /// one shard's WorldSlice).  Outcomes/degradation/series rows align
  /// with `blocks`; the storage must outlive the engine.
  StreamingFleet(std::span<const sim::BlockProfile> blocks,
                 const FleetConfig& config);

  util::SimTime window_start() const noexcept { return window_.start; }
  util::SimTime window_end() const noexcept { return window_.end; }

  /// Batch drive: finalize().  On an engine that never advanced, every
  /// block runs start-to-finish in parallel; after advances, the rest of
  /// the window is drained.
  FleetResult run_to_completion() { return finalize(); }

  /// Incremental drive: ingests every round starting before `until`
  /// (clamped to the detection window) across all blocks.  Monotone in
  /// `until`; a no-op advance returns an empty report.
  EpochReport advance_to(util::SimTime until);

  /// Drains all remaining state and returns the authoritative result,
  /// bit-identical regardless of how the window was chopped into epochs
  /// (none at all included).
  FleetResult finalize();

  /// High-water mark of the incremental drive (the next advance/resume
  /// point).  window_start() until the first advance.
  util::SimTime clock() const noexcept { return clock_; }

  /// Serializes the incremental drive's complete mid-window state:
  /// every cell's reconstruction stream, provisional-detector moments
  /// and CUSUM, plus any mid-run classification verdicts.  Valid only
  /// between advances (never after finalize()).  restore() targets a
  /// freshly constructed engine over the same blocks and FleetConfig —
  /// it re-begins each cell's stream internally, then overwrites the
  /// mutable state, so advance/finalize after restore are bit-identical
  /// to an uninterrupted run (tests/test_checkpoint.cc gates this at
  /// every epoch boundary).  A mismatched window, window split, or
  /// block count throws StateError(kBadValue); any failed restore
  /// leaves the engine as constructed, so the caller may fall back to a
  /// fresh run.
  void save(util::StateWriter& w) const;
  void restore(util::StateReader& r);

  /// Fills `rows` (resized to the block span) with the incremental
  /// drive's current per-block state.  Like save(), valid only between
  /// advances and only from the thread driving the engine — the rows
  /// are a copy, so the caller may publish them to other threads.
  void extract_rows(std::vector<BlockSnapshotRow>& rows) const;

  /// The stable emitted-sample prefix of block i's detection-window
  /// reconstruction.  Same validity rules as extract_rows(); the view
  /// is invalidated by the next advance, so concurrent consumers must
  /// copy.  Empty before the block's stream begins.
  std::span<const double> emitted_series(std::size_t i) const;

 private:
  /// Per-block incremental state (built by the first advance, which
  /// begins every cell).
  struct Cell {
    recon::BlockStream stream;
    bool active = false;      ///< still ingesting rounds
    bool classified = false;  ///< authoritative verdict recorded
    bool screened = false;    ///< provisional watch decision made
    bool watched = false;     ///< provisional detector runs on this block
    std::size_t delivered = 0;  ///< high-water mark for epoch deltas
    // Provisional detector state: trend values frozen as first
    // estimated, z-normalized by running moments, scanned by an online
    // CUSUM over the concatenated z sequence.
    std::size_t trend_fed = 0;   ///< recon samples already folded in
    std::size_t trend_base = 0;  ///< recon index of the first z pushed
    double tsum = 0.0, tsum2 = 0.0;
    std::size_t tn = 0;
    analysis::OnlineCusum cusum;
    std::size_t reported = 0;  ///< confirmed changes already surfaced
  };

  /// One worker's scratch and finish queue (defined in streaming.cc).
  struct Worker;

  /// Block i is change-sensitive and detection is on.
  bool detects(std::size_t i) const noexcept;
  void begin_cell(std::size_t i, probe::ProbeScratch& scratch);
  /// The config-derived part of a begun cell: for a probed block, the
  /// stream begun and bound to the block's store row.
  void bind_cell(std::size_t i, probe::ProbeScratch& scratch);
  /// The snapshot layout (FLTM, then CELL), in wire order
  /// (util/state_io.h field lists).  `scratch` serves the reader only.
  template <class Self, class IO>
  static void fields(Self& self, IO& io, probe::ProbeScratch* scratch);
  void screen_cell(std::size_t i, Worker& w);
  /// Queues watched cell i's trailing STL refit on the worker.
  void update_provisional(std::size_t i, Worker& w);
  void finish_result();

  std::span<const sim::BlockProfile> blocks_;
  const FleetConfig& config_;
  /// Classification has its own window or observers: a dedicated
  /// classification pass per block, else the detection pass serves both.
  bool split_ = false;
  probe::ProbeWindow window_{};           ///< detection window
  probe::ProbeWindow classify_window_{};  ///< classification window
  recon::BlockObservationConfig classify_oc_{};
  recon::BlockObservationConfig detect_oc_{};
  unsigned threads_ = 1;

  FleetResult result_;
  /// Columnar destination for detection-window series: rows are bound
  /// to each block's reconstruction before it runs, then moved into
  /// result_.series by finish_result().
  SeriesStore store_;
  bool finished_ = false;

  // Incremental drive state.
  std::vector<Cell> cells_;
  util::SimTime clock_ = 0;
  std::size_t epoch_index_ = 0;
};

}  // namespace diurnal::core
