// Externalized pipeline results: per-shard checkpoint files plus the
// manifest that lets run_sharded_fleet() resume a killed run without
// recomputing completed shards, and the one file of a resumable
// streaming run (DESIGN.md section 11).
//
// A shard checkpoint stores the shard's *outputs* — outcomes,
// degradation rows, gridcell aggregation — not its in-flight
// reconstruction state: shards are the unit of recompute, so a shard is
// either done (its file is complete and CRC-clean) or it runs again
// from the world seed.  Mid-window state travels through the
// StreamingFleet::save()/restore() path instead, which RunCheckpoint
// keeps in one file per streaming run.
//
// Every file carries the run's config fingerprint; a checkpoint written
// under a different world/fleet configuration is rejected with
// StateError(kBadValue) instead of silently merging foreign results.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
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
// snapshot.  Reading overwrites the target completely.
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

/// The one checkpoint file of a resumable streaming run (diurnal_cli
/// run --stream's stream.ckpt, diurnal_serve's serve.ckpt): a CLIM
/// section holding checkpoint_fingerprint(world, config, 0), then the
/// engine image — a StreamingFleet's or a SnapshotServer's save() — in
/// the same file, so a crash mid-write can never leave a new image
/// behind an old fingerprint.
class RunCheckpoint {
 public:
  /// The file `dir`/`name` of the run over `world` with `config`.
  /// Creates `dir` if needed; throws StateError(kIo) when it cannot.
  RunCheckpoint(const std::string& dir, const std::string& name,
                const sim::WorldConfig& world, const FleetConfig& config);

  /// Restores the engine from the file.  Returns nothing on success;
  /// otherwise the reason the run starts fresh (a missing, truncated,
  /// corrupt or foreign file), and the engine is left as constructed.
  template <class Engine>
  std::optional<std::string> resume(Engine& engine) const {
    return read([&engine](util::StateReader& r) { engine.restore(r); });
  }

  /// Writes the fingerprint and the engine image atomically
  /// (util::write_state_file); throws StateError(kIo) on failure.
  template <class Engine>
  void save(const Engine& engine) const {
    write([&engine](util::StateWriter& w) { engine.save(w); });
  }

  /// Removes the file: a completed run must not resume from it.
  void discard() const;

  const std::string& path() const noexcept { return path_; }

 private:
  std::optional<std::string> read(
      const std::function<void(util::StateReader&)>& restore) const;
  void write(const std::function<void(util::StateWriter&)>& save) const;

  std::string path_;
  std::uint64_t fingerprint_;
};

/// One restored shard's contribution to the merged result.
struct ShardCheckpoint {
  std::size_t begin = 0;  ///< first global block index
  std::size_t end = 0;    ///< one past the last
  std::vector<BlockOutcome> outcomes;                ///< end - begin rows
  std::vector<fault::BlockDegradation> degradation;  ///< end - begin rows
  ChangeAggregator aggregate;  ///< this shard's gridcell/continent series
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
  /// Sections after the outputs are not read.
  ShardCheckpoint load_shard(std::size_t k);

  /// Serializes shard k's slice [begin, end) of the already-folded
  /// global result plus its own aggregator, writes the shard file
  /// atomically, and rewrites the manifest every `manifest_every`
  /// completions.  Throws StateError(kIo) when a file cannot be
  /// written.
  void record_shard(std::size_t k, std::size_t begin, std::size_t end,
                    const FleetResult& fleet, const ChangeAggregator& agg);

  /// The same call; the flag is unused.  Kept only for the repository
  /// benchmark (perfbench/src/batch.cc), which compiles against this
  /// signature until a benchmark change moves it off.
  void record_shard(std::size_t k, std::size_t begin, std::size_t end,
                    const FleetResult& fleet, const ChangeAggregator& agg,
                    bool) {
    record_shard(k, begin, end, fleet, agg);
  }

  /// Rewrites the manifest with every shard recorded so far.
  /// Idempotent: a flush with nothing new since the last write is a
  /// no-op, so the run-end finalize cannot race (or redundantly repeat)
  /// a manifest write that `manifest_every` already triggered on the
  /// final shard.
  void flush_manifest();

  /// Manifest rewrites performed by this manager (regression hook for
  /// the finalize-idempotence tests).
  std::size_t manifest_writes() const;

 private:
  std::string shard_path(std::size_t k) const;
  std::string manifest_path() const;
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
