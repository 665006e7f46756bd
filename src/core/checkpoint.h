// Externalized pipeline results: per-shard checkpoint files plus the
// manifest that lets run_sharded_fleet() resume a killed run without
// recomputing completed shards (DESIGN.md section 11).
//
// A shard checkpoint stores the shard's *outputs* — outcomes,
// degradation rows, gridcell aggregation, optionally series rows — not
// its in-flight reconstruction state: shards are the unit of recompute,
// so a shard is either done (its file is complete and CRC-clean) or it
// runs again from the world seed.  Mid-window state travels through the
// StreamingFleet::save()/restore() path instead (the CLI's streaming
// checkpoints), built on the same serializers below.
//
// Every file carries the run's config fingerprint; a checkpoint written
// under a different world/fleet configuration is rejected with
// StateError(kBadValue) instead of silently merging foreign results.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/cusum.h"
#include "core/aggregate.h"
#include "core/pipeline.h"
#include "util/state_io.h"

namespace diurnal::core {

// Field lists of the result rows, in wire order (util/state_io.h),
// shared by the shard checkpoint files and the streaming-engine
// snapshot.  save_state/restore_state are their two directions; each
// restore_state overwrites its target completely.
template <class IO>
void fields(IO& io, util::Field<IO, BlockClassification>& c) {
  io.boolean(c.responsive);
  io.boolean(c.diurnal);
  io.boolean(c.wide_swing);
  io.boolean(c.change_sensitive);
  io.boolean(c.low_confidence);
  io.f64(c.evidence_fraction);
  io.boolean(c.diurnal_detail.diurnal);
  io.f64(c.diurnal_detail.power_ratio);
  io.f64(c.diurnal_detail.total_power);
  io.f64(c.diurnal_detail.diurnal_power);
  io.i64(c.diurnal_detail.segments);
  io.i64(c.diurnal_detail.segments_diurnal);
  io.boolean(c.swing_detail.wide);
  io.i64(c.swing_detail.wide_days);
  io.i64(c.swing_detail.total_days);
  io.f64(c.swing_detail.max_daily_swing);
  io.i64(c.swing_detail.best_window_wide);
}

template <class IO>
void fields(IO& io, util::Field<IO, fault::BlockDegradation>& d) {
  io.i64(d.configured_observers);
  io.i64(d.live_observers);
  io.i64(d.partial_observers);
  io.u64(d.dropped_observations);
  io.u64(d.corrupted_observations);
  io.f64(d.evidence_fraction);
  io.f64(d.max_gap_hours);
  io.boolean(d.low_confidence);
}

template <class IO>
void fields(IO& io, util::Field<IO, DetectedChange>& c) {
  io.i64(c.start);
  io.i64(c.alarm);
  io.i64(c.end);
  analysis::direction_field(io, c.direction);
  io.f64(c.amplitude);
  io.f64(c.amplitude_addresses);
  io.boolean(c.filtered_as_outage);
  io.boolean(c.filtered_small);
  io.boolean(c.filtered_phase_only);
  io.boolean(c.low_evidence);
}

template <class IO>
void fields(IO& io, util::Field<IO, BlockOutcome>& o) {
  std::uint32_t id = o.id.id();
  io.u32(id);
  if constexpr (IO::kReading) o.id = net::BlockId(id);
  fields(io, o.cls);
  io.seq(o.changes, [&io](auto& c) { fields(io, c); });
}

void save_state(util::StateWriter& w, const BlockClassification& c);
void restore_state(util::StateReader& r, BlockClassification& c);
void save_state(util::StateWriter& w, const fault::BlockDegradation& d);
void restore_state(util::StateReader& r, fault::BlockDegradation& d);
void save_state(util::StateWriter& w, const DetectedChange& c);
void restore_state(util::StateReader& r, DetectedChange& c);
void save_state(util::StateWriter& w, const BlockOutcome& o);
void restore_state(util::StateReader& r, BlockOutcome& o);

/// Fingerprint of everything a checkpoint's results depend on: the
/// world configuration, the datasets/windows, the fault plan, and the
/// key analysis knobs.  Deliberately excludes the execution shape —
/// thread count, batch width, max_resident — which the determinism
/// contract guarantees cannot change the output; a run may resume
/// another's checkpoints across those.  `shard_size` is folded in for
/// sharded runs (shard files only splice at matching boundaries); pass
/// 0 for streaming checkpoints.
std::uint64_t checkpoint_fingerprint(const sim::WorldConfig& world,
                                     const FleetConfig& config,
                                     std::uint64_t shard_size = 0);

/// The head of a resumable streaming run's one checkpoint file
/// (diurnal_cli --stream's stream.ckpt, diurnal_serve's serve.ckpt): a
/// CLIM section holding checkpoint_fingerprint(world, config, 0), then
/// the engine image in the same file, so a crash mid-write can never
/// leave a new image behind an old fingerprint.  Writes `fingerprint`;
/// a reader fails with StateError(kBadValue) unless it matches.
template <class IO>
void run_fingerprint(IO& io, std::uint64_t fingerprint) {
  io.begin_section(util::state_tag("CLIM"));
  io.expect(fingerprint,
            "checkpoint was written under a different configuration");
  io.end_section();
}

/// One restored shard's contribution to the merged result.
struct ShardCheckpoint {
  std::size_t begin = 0;  ///< first global block index
  std::size_t end = 0;    ///< one past the last
  std::vector<BlockOutcome> outcomes;                ///< end - begin rows
  std::vector<fault::BlockDegradation> degradation;  ///< end - begin rows
  ChangeAggregator aggregate;  ///< this shard's gridcell/continent series
  bool has_series = false;     ///< recorded with retain_series
  SeriesStore series;          ///< end - begin rows when has_series
};

/// Owns a checkpoint directory: one `shard-<k>.ckpt` per completed
/// shard plus a `manifest.ckpt` listing which are complete.  Shard
/// files are written atomically (tmp + rename) and the manifest is
/// rewritten after the fact, so a crash at any instant leaves only
/// complete, loadable files — at worst the manifest under-reports and a
/// finished shard is recomputed.
///
/// record_shard() is safe to call from concurrent shard workers; loads
/// are single-threaded (the resume prologue).
class CheckpointManager {
 public:
  /// Creates `dir` if needed.  `manifest_every` batches manifest
  /// rewrites: 1 persists progress after every shard, N trades
  /// durability granularity for fewer writes (flush_manifest() always
  /// runs at the end of the run).
  CheckpointManager(std::string dir, std::uint64_t fingerprint,
                    std::size_t total_blocks, std::size_t shard_size,
                    std::size_t manifest_every = 1);

  /// Shard ids a previous run recorded complete.  An absent manifest is
  /// an empty list (first run); a corrupt manifest or one written under
  /// a different fingerprint/universe throws StateError.
  std::vector<std::size_t> load_manifest();

  /// Loads shard k's checkpoint file and marks it complete in this
  /// manager.  Throws StateError when the file is missing, corrupt,
  /// truncated, or fingerprint-mismatched — callers recompute the shard.
  ShardCheckpoint load_shard(std::size_t k);

  /// Serializes shard k's slice [begin, end) of the already-folded
  /// global result plus its own aggregator, writes the shard file
  /// atomically, and rewrites the manifest every `manifest_every`
  /// completions.
  void record_shard(std::size_t k, std::size_t begin, std::size_t end,
                    const FleetResult& fleet, const ChangeAggregator& agg,
                    bool with_series);

  /// Rewrites the manifest with every shard recorded so far.
  /// Idempotent: a flush with nothing new since the last write is a
  /// no-op, so the run-end finalize cannot race (or redundantly repeat)
  /// a manifest write that `manifest_every` already triggered on the
  /// final shard.
  void flush_manifest();

  /// Manifest rewrites performed by this manager (regression hook for
  /// the finalize-idempotence tests).
  std::size_t manifest_writes() const;

  std::string shard_path(std::size_t k) const;
  std::string manifest_path() const;
  const std::string& dir() const noexcept { return dir_; }
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

 private:
  /// The manifest layout, in wire order (util/state_io.h field lists).
  template <class IO, class Ids>
  void manifest_fields(IO& io, Ids& completed) const;
  void write_manifest_locked();

  std::string dir_;
  std::uint64_t fingerprint_;
  std::uint64_t total_blocks_;
  std::uint64_t shard_size_;
  std::size_t manifest_every_;
  mutable std::mutex mu_;
  std::set<std::size_t> completed_;
  std::size_t unflushed_ = 0;
  bool dirty_ = false;  ///< completions not yet persisted in the manifest
  std::size_t manifest_writes_ = 0;
};

}  // namespace diurnal::core
