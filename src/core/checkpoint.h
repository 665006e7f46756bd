// Externalized pipeline results: the per-shard checkpoint files that
// let run_sharded_fleet() resume a killed run without recomputing
// completed shards, and the one file of a resumable streaming run
// (DESIGN.md section 11).
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
#include <optional>
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

/// Owns a checkpoint directory of `shard-<k>.ckpt` files, one per
/// completed shard.  Each is written atomically (tmp + rename) and
/// describes itself (run fingerprint, slot and block span in SMET, every
/// section CRC-checked), so the directory is its own ledger: a shard is
/// complete exactly when its file loads.  The manager holds no mutable
/// state, so concurrent shard workers record through it without a lock.
class CheckpointManager {
 public:
  /// Creates `dir` if needed; throws StateError(kIo) when it cannot.
  CheckpointManager(std::string dir, std::uint64_t fingerprint,
                    std::size_t total_blocks, std::size_t shard_size);

  /// Loads shard k's checkpoint file.  Throws StateError when the file
  /// is missing, corrupt, truncated, fingerprint-mismatched, or not
  /// exactly slot k's block span — callers recompute the shard.
  /// Sections after the outputs are not read.
  ShardCheckpoint load_shard(std::size_t k) const;

  /// Serializes shard k's slice [begin, end) of the already-folded
  /// global result plus its own aggregator and writes the shard file
  /// atomically.  Throws StateError(kIo) when it cannot be written.
  void record_shard(std::size_t k, std::size_t begin, std::size_t end,
                    const FleetResult& fleet,
                    const ChangeAggregator& agg) const;

  // The three members below are kept only for the repository benchmark
  // (perfbench/src/batch.cc), which compiles against them until a
  // benchmark change moves it off.

  /// The same call as record_shard(); the flag is unused.
  void record_shard(std::size_t k, std::size_t begin, std::size_t end,
                    const FleetResult& fleet, const ChangeAggregator& agg,
                    bool) const {
    record_shard(k, begin, end, fleet, agg);
  }

  /// The slots whose shard file exists, ascending; load_shard() decides
  /// whether each one is complete.
  std::vector<std::size_t> load_manifest() const;

  /// Does nothing: the shard files are the only record.
  void flush_manifest() const {}

 private:
  std::string shard_path(std::size_t k) const;

  std::string dir_;
  std::uint64_t fingerprint_;
  std::uint64_t total_blocks_;
  std::uint64_t shard_size_;
};

}  // namespace diurnal::core
