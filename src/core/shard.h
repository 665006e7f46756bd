// Sharded fleet execution: the paper-scale drive (5.2M /24 blocks)
// with a bounded resident set.
//
// A full run_fleet() materializes the whole world, every block's
// reconstruction series, and all recon state at once — fine at 2k
// blocks, hopeless at paper scale.  The shard scheduler instead
// partitions the block universe into contiguous shards and, per shard:
//
//   materialize (sim::WorldSlice, from the world seed)
//     -> probe -> faults -> repair -> merge -> recon -> analysis
//        (one span-based StreamingFleet over the slice)
//     -> fold outcomes/degradation into the global result,
//        merge the shard's gridcell/continent aggregation
//     -> retire (slice + shard SeriesStore freed)
//
// At most `max_resident` shards are alive at once, so peak memory is
// O(resident shards * shard footprint + per-block verdicts), not
// O(world * series).  Every per-block decision is a pure function of
// the block's salted seed and the fleet config — blocks never interact
// — so the partition is invisible in the output: the merged result is
// bitwise-identical (same fleet digest) to an unsharded run at every
// shard size, thread count, and fault plan.  tests/test_shard.cc and
// bench_shard gate that contract; DESIGN.md section 10 documents it.
#pragma once

#include <cstddef>
#include <string>

#include "core/aggregate.h"
#include "core/pipeline.h"
#include "sim/world_slice.h"

namespace diurnal::core {

struct ShardConfig {
  /// Blocks per shard; 0 = one shard spanning the whole universe.
  std::size_t shard_size = 4096;

  /// Maximum shards resident (materialized but not yet retired) at
  /// once.  Also caps shard-level workers: each worker holds at most
  /// one resident shard.
  std::size_t max_resident = 4;

  /// Directory for shard checkpoint files (core/checkpoint.h); empty
  /// disables checkpointing.  Each completed shard's outputs are written
  /// atomically as `shard-<k>.ckpt`, keyed by a fingerprint of the
  /// world/fleet configuration; the files are the only record of which
  /// shards are complete.
  std::string checkpoint_dir;

  /// Resume: before computing anything, load every shard file in
  /// checkpoint_dir and fold it into the result; only the remaining
  /// shards run.  A missing/corrupt/mismatched checkpoint is never
  /// fatal — that shard is simply recomputed (and re-recorded).
  bool resume = false;

  /// Stop after computing this many shards this run (0 = no cap).
  /// Already-resumed shards do not count.  This is the deterministic
  /// kill-mid-run harness: run with a cap, then resume without one and
  /// the merged result must be bitwise-identical to an uninterrupted
  /// run (tests/test_checkpoint.cc).
  std::size_t max_shards = 0;
};

/// Residency accounting for one sharded run.
struct ShardStats {
  std::size_t shards = 0;
  std::size_t shard_size = 0;
  std::size_t blocks = 0;         ///< universe size
  std::size_t workers = 0;        ///< concurrent shard workers
  std::size_t intra_threads = 0;  ///< threads inside each shard run
  /// Most shards alive at any instant (must stay <= max_resident).
  std::size_t peak_resident = 0;
  /// Peak accounted bytes across resident shards: world slices plus
  /// shard-local series stores (the structures sharding exists to
  /// bound; excludes the global verdict arrays and worker scratch).
  std::size_t peak_resident_bytes = 0;
  /// Shards folded in from checkpoint files instead of being computed.
  std::size_t resumed_shards = 0;
  /// Shards computed (and, with a checkpoint_dir, recorded) this run.
  std::size_t completed_shards = 0;
};

struct ShardedFleetResult {
  /// Outcomes/degradation over all blocks; no series (each shard's
  /// store is freed when the shard retires).
  FleetResult fleet;
  ChangeAggregator aggregate; ///< gridcell/continent series, merged
  ShardStats stats;
};

/// Runs the full pipeline over `world_config`'s universe in shards.
/// The output contract: fleet_digest(result.fleet) equals the digest of
/// run_fleet() over the materialized world with the same FleetConfig,
/// and `aggregate` equals aggregate_changes() on that result.  A
/// checkpoint directory that cannot be created, or a shard file that
/// cannot be written, throws StateError(kIo) on the calling thread once
/// every shard worker has stopped.
ShardedFleetResult run_sharded_fleet(const sim::WorldConfig& world_config,
                                     const FleetConfig& config,
                                     const ShardConfig& shards = {});

/// Same, over a pre-built generator (shares special-block setup between
/// phases of a bench).
ShardedFleetResult run_sharded_fleet(const sim::BlockGenerator& generator,
                                     const FleetConfig& config,
                                     const ShardConfig& shards = {});

}  // namespace diurnal::core
