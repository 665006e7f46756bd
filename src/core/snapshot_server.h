// Concurrent query plane over the streaming engine (DESIGN.md
// section 13): one writer thread drives StreamingFleet::advance_to
// epoch by epoch and publishes an immutable EpochSnapshot after each
// advance; any number of reader threads answer per-block, per-gridcell,
// alarm, coverage and scorecard queries against a pinned snapshot.
//
// Concurrency model:
//   * The engine is touched by exactly one thread — the ingest loop.
//     Readers never see it; they see snapshots, which are deep copies
//     of the query-relevant state plus the engine's util/state_io image
//     (the same bytes the CLI's streaming checkpoints persist, so a
//     pinned snapshot IS a restorable checkpoint).
//   * Publication is an RCU-style shared_ptr swap (util::EpochRegistry).
//     A reader pinning epoch k holds the refcount; its answers are
//     bitwise-frozen no matter how far the writer advances.
//   * The observation feed is a bounded queue (util::BoundedQueue):
//     when snapshot building falls behind, feeders block instead of
//     growing memory — backpressure is surfaced in ServeStats.
//
// Shutdown: drain() closes the feed, lets the writer consume every
// queued epoch, finalizes the engine (bit-identical to the batch drive
// — the golden-digest contract), and publishes a final snapshot carrying
// the authoritative verdicts.  stop() instead leaves the run mid-window;
// save() (equally, the latest snapshot's image()) is the checkpoint to
// resume from.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "core/streaming.h"
#include "geo/gridcell.h"
#include "util/bounded_queue.h"
#include "util/date.h"
#include "util/epoch_registry.h"

namespace diurnal::core {

struct ServeConfig {
  /// Feed granularity used by feed_all() (and the serve tool's ticker).
  std::int64_t epoch_duration = util::kSecondsPerDay;
  /// Feed queue depth; feeders block when the writer falls this far
  /// behind.
  std::size_t feed_capacity = 4;
  /// Trailing samples of each block's reconstructed series copied into
  /// a snapshot (the trend query).  0 copies the whole emitted prefix.
  std::size_t trend_tail = 7 * 24;
  /// Carry the engine's state_io image in every snapshot.  The image is
  /// what makes a snapshot a restorable checkpoint; disable only for
  /// stress tests that never restore.
  bool keep_image = true;
};

/// Per-gridcell rollup inside one snapshot.
struct CellQueryStats {
  geo::GridCell cell{};
  std::int32_t blocks = 0;
  std::int32_t watched = 0;
  std::int32_t classified = 0;
  std::int32_t change_sensitive = 0;
  std::int32_t alarms_down = 0;
  std::int32_t alarms_up = 0;
};

/// Fleet-wide rollup inside one snapshot.
struct ServeScorecard {
  std::size_t epoch_index = 0;
  util::SimTime clock = 0;
  std::size_t observations_total = 0;  ///< since the serve loop started
  /// True once every classification verdict is authoritative (split
  /// windows: when the classification window is fully ingested; single
  /// window: at drain).
  bool classification_complete = false;
  FunnelCounts funnel{};  ///< populated when classification_complete
  std::size_t blocks = 0;
  std::size_t blocks_active = 0;
  std::size_t blocks_watched = 0;
  std::size_t blocks_classified = 0;
  std::size_t alarms_down = 0;  ///< cumulative provisional alarms
  std::size_t alarms_up = 0;
  double mean_evidence_fraction = 0.0;  ///< over blocks with samples
  std::size_t low_evidence_blocks = 0;  ///< below the classifier floor
};

/// One immutable epoch of the query plane.  Everything reachable from a
/// pinned snapshot is deep-copied at publish time; no member mutates
/// after construction, so concurrent readers need no synchronization.
class EpochSnapshot {
 public:
  using Row = StreamingFleet::BlockSnapshotRow;

  std::size_t epoch_index() const noexcept { return scorecard_.epoch_index; }
  util::SimTime clock() const noexcept { return scorecard_.clock; }
  /// True for the snapshot published by drain(): verdicts are the
  /// authoritative finalize results, not mid-run provisionals.
  bool final_epoch() const noexcept { return final_; }

  const ServeScorecard& scorecard() const noexcept { return scorecard_; }

  std::size_t rows() const noexcept { return rows_.size(); }
  const Row& row(std::size_t i) const noexcept { return rows_[i]; }
  /// Per-block lookup; null for a block outside the served span.
  const Row* block(net::BlockId id) const;

  /// The trailing reconstructed active-address series of one block (the
  /// trend query; ServeConfig::trend_tail bounds its length), and the
  /// absolute time of its first sample.
  std::span<const double> trend(net::BlockId id) const;
  util::SimTime trend_start(net::BlockId id) const;

  /// Cumulative provisional alarms, ordered by (alarm time, block id).
  std::span<const ProvisionalChange> alarms() const noexcept {
    return alarms_;
  }
  /// The alarms of one block (contiguous range of the by-block order).
  std::span<const ProvisionalChange> alarms_for(net::BlockId id) const;

  /// Per-gridcell rollups, ordered by (lat_idx, lon_idx).
  std::span<const CellQueryStats> cells() const noexcept { return cells_; }
  const CellQueryStats* cell(geo::GridCell c) const;

  /// The engine's util/state_io image at this epoch — the snapshot
  /// currency: feed it to SnapshotServer::restore() (or the CLI resume
  /// path) to continue the run from exactly this point.  Empty when
  /// ServeConfig::keep_image is off and on the final snapshot (a
  /// completed run has nothing to resume).
  std::span<const std::uint8_t> image() const noexcept { return image_; }

  /// FNV-1a over the whole query surface (rows, trends, alarms, cells,
  /// scorecard).  Two calls on the same snapshot — however far the
  /// writer has advanced in between — must return the same value; the
  /// pinned-reader property tests gate exactly that.
  std::uint64_t answers_digest() const;

  /// Heap footprint (ServeStats::snapshot_bytes).
  std::size_t bytes() const noexcept;

 private:
  friend class SnapshotServer;

  struct TrendRef {
    std::size_t offset = 0;
    std::size_t len = 0;
    util::SimTime start = 0;
  };

  bool final_ = false;
  ServeScorecard scorecard_{};
  std::vector<Row> rows_;
  std::vector<TrendRef> trend_refs_;  ///< aligned with rows_
  std::vector<double> trend_data_;
  std::vector<ProvisionalChange> alarms_;           ///< (alarm, id) order
  std::vector<ProvisionalChange> alarms_by_block_;  ///< (id, alarm) order
  std::vector<CellQueryStats> cells_;
  std::vector<std::uint8_t> image_;
  /// Block-id -> row index; shared across snapshots (the span is fixed).
  std::shared_ptr<const std::unordered_map<std::uint32_t, std::size_t>> index_;
};

/// Backpressure and progress counters (all monotone; safe to read from
/// any thread).
struct ServeStats {
  std::uint64_t epochs_published = 0;
  std::uint64_t observations = 0;
  std::uint64_t feed_accepted = 0;
  std::uint64_t feed_waits = 0;  ///< feeder blocked on a full queue
  std::size_t feed_peak_depth = 0;
  std::size_t feed_capacity = 0;
  std::size_t snapshot_bytes = 0;  ///< latest snapshot's footprint
  /// Where the writer's time went, in steady_clock seconds summed over
  /// the ingest epochs (divide by epochs_published for a per-epoch
  /// mean): the engine's advance, and publication — building the
  /// snapshot, its state image included.  Never hashed.
  double advance_seconds = 0.0;
  double publish_seconds = 0.0;
  double image_seconds = 0.0;   ///< 0 with ServeConfig::keep_image off
  std::size_t image_bytes = 0;  ///< latest snapshot's image
};

class SnapshotServer {
 public:
  /// Borrows `blocks` and `config` for the server's lifetime (the same
  /// contract as StreamingFleet).
  SnapshotServer(std::span<const sim::BlockProfile> blocks,
                 const FleetConfig& config, const ServeConfig& serve = {});
  SnapshotServer(const sim::World& world, const FleetConfig& config,
                 const ServeConfig& serve = {})
      : SnapshotServer(std::span<const sim::BlockProfile>(world.blocks()),
                       config, serve) {}
  ~SnapshotServer();

  util::SimTime window_start() const noexcept {
    return engine_.window_start();
  }
  util::SimTime window_end() const noexcept { return engine_.window_end(); }

  /// The engine's ingest clock.  Only valid while no writer owns the
  /// engine: before start(), or after drain()/stop() returned.
  util::SimTime clock() const noexcept { return engine_.clock(); }

  /// Restores a mid-window engine image (an EpochSnapshot::image() or a
  /// streaming checkpoint's engine section).  Must precede start().
  void restore(util::StateReader& r);

  /// Writes the engine image — the bytes the latest snapshot's image()
  /// carries, or the restored image before any epoch ran.  Valid before
  /// start() and after stop(); never during ingest or after drain().
  void save(util::StateWriter& w) const;

  /// Spawns the ingest loop.  Call once.
  void start();

  /// Enqueues one epoch tick (advance the engine to `until`), blocking
  /// while the feed is full.  Returns false once the server is
  /// stopping.  Any thread.
  bool feed(util::SimTime until);

  /// Enqueues ticks of epoch_duration covering the remaining window;
  /// returns how many were accepted.
  std::size_t feed_all();

  /// The latest published snapshot (pin by holding the pointer); null
  /// before the first epoch.  Any thread.
  std::shared_ptr<const EpochSnapshot> snapshot() const {
    return registry_.current();
  }

  /// Blocks until at least `publishes` snapshots have been published
  /// (or the server stopped); returns the latest.  Any thread.
  std::shared_ptr<const EpochSnapshot> wait_for_epoch(
      std::uint64_t publishes) const {
    return registry_.wait_for_version(publishes);
  }

  /// Graceful shutdown: stops accepting feeds, lets the writer consume
  /// every queued epoch, finalizes (bit-identical to the batch drive)
  /// and publishes the final snapshot.  Call once, not concurrently
  /// with stop().
  FleetResult drain();

  /// Abandon-in-place shutdown: stops the writer after the epoch it is
  /// processing; the engine stays mid-window and save() writes the
  /// checkpoint to resume from.
  void stop();

  ServeStats stats() const;

 private:
  void writer_loop();
  /// The snapshot of the epoch `rep` reports.  With `final` set, the
  /// engine is finalized into it first and the snapshot is the drained
  /// run's: authoritative rows, the result's series and funnel, no image.
  std::shared_ptr<EpochSnapshot> build_snapshot(const EpochReport& rep,
                                                FleetResult* final);
  /// Copies the trailing trend_tail samples of row i's series `s` into
  /// the snapshot (trend_refs_ already sized).
  void fill_trend(EpochSnapshot& snap, std::size_t i,
                  std::span<const double> s) const;
  void fill_rollups(EpochSnapshot& snap);

  std::span<const sim::BlockProfile> blocks_;
  const FleetConfig& config_;
  ServeConfig serve_;
  StreamingFleet engine_;
  std::shared_ptr<const std::unordered_map<std::uint32_t, std::size_t>>
      index_;
  std::vector<geo::GridCell> cell_of_;  ///< aligned with blocks_

  util::BoundedQueue<util::SimTime> feed_;
  util::EpochRegistry<EpochSnapshot> registry_;
  std::thread writer_;
  bool started_ = false;
  bool finished_ = false;
  /// Engine clock captured at start(); feed_all() ticks from here so it
  /// never reads the writer-owned engine.
  util::SimTime feed_from_ = 0;

  // Writer-thread state.
  std::vector<ProvisionalChange> alarm_log_;  ///< cumulative, sorted

  // Cross-thread counters.
  std::atomic<std::uint64_t> epochs_{0};
  std::atomic<std::uint64_t> observations_{0};
  std::atomic<std::size_t> snapshot_bytes_{0};
  std::atomic<double> advance_seconds_{0.0};
  std::atomic<double> publish_seconds_{0.0};
  std::atomic<double> image_seconds_{0.0};
  std::atomic<std::size_t> image_bytes_{0};
};

}  // namespace diurnal::core
