// Shard-scheduler property tests: the partition must be invisible.
//
// The contract under test (core/shard.h, DESIGN.md section 10): a
// sharded drive over the same world config and fleet config produces a
// bitwise-identical fleet digest — same funnel, same per-block
// verdicts, same detected changes — at every shard size and thread
// count, with and without fault plans; gridcell/continent aggregation
// merged across shards equals unsharded aggregation; and no series
// bytes survive shard retirement.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/digest.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "fault/fault_plan.h"
#include "sim/world.h"
#include "sim/world_slice.h"

namespace diurnal {
namespace {

sim::WorldConfig small_world_config() {
  sim::WorldConfig wc;
  wc.num_blocks = 500;
  wc.seed = 97;
  return wc;
}

core::FleetConfig fleet_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

/// Unsharded reference: run_fleet over the materialized world.
struct Reference {
  core::FleetResult fleet;
  std::uint64_t digest;
  core::ChangeAggregator aggregate;
};

Reference reference_run(const sim::WorldConfig& wc,
                        const core::FleetConfig& fc) {
  const sim::World world(wc);
  Reference ref;
  ref.fleet = core::run_fleet(world, fc);
  ref.digest = core::fleet_digest(ref.fleet);
  ref.aggregate = core::aggregate_changes(world, ref.fleet, fc);
  return ref;
}

void expect_same_region(const core::RegionDaySeries& a,
                        const core::RegionDaySeries& b) {
  EXPECT_EQ(a.change_sensitive_blocks, b.change_sensitive_blocks);
  EXPECT_EQ(a.down, b.down);
  EXPECT_EQ(a.up, b.up);
}

void expect_same_aggregate(const core::ChangeAggregator& a,
                           const core::ChangeAggregator& b) {
  ASSERT_EQ(a.days(), b.days());
  ASSERT_EQ(a.by_cell().size(), b.by_cell().size());
  for (const auto& [cell, series] : a.by_cell()) {
    const auto it = b.by_cell().find(cell);
    ASSERT_NE(it, b.by_cell().end());
    expect_same_region(series, it->second);
  }
  for (std::size_t c = 0; c < a.by_continent().size(); ++c) {
    expect_same_region(a.by_continent()[c], b.by_continent()[c]);
  }
}

TEST(BlockGenerator, MatchesMaterializedWorldBitwise) {
  // Every lazily generated block must equal its row in a full World —
  // the identity the whole sharding contract rests on.
  const auto wc = small_world_config();
  const sim::World world(wc);
  const sim::BlockGenerator gen(wc);
  ASSERT_EQ(gen.total_blocks(), world.blocks().size());
  for (std::size_t i = 0; i < gen.total_blocks(); ++i) {
    const auto b = gen.make(i);
    const auto& w = world.blocks()[i];
    ASSERT_EQ(b.id, w.id) << "index " << i;
    EXPECT_EQ(b.category, w.category);
    EXPECT_EQ(b.country, w.country);
    EXPECT_EQ(b.tz_offset_hours, w.tz_offset_hours);
    EXPECT_EQ(b.lat, w.lat);
    EXPECT_EQ(b.lon, w.lon);
    EXPECT_EQ(b.eb_count, w.eb_count);
    EXPECT_EQ(b.always_on, w.always_on);
    EXPECT_EQ(b.seed, w.seed);
    EXPECT_EQ(b.base_attendance, w.base_attendance);
    EXPECT_EQ(b.current_fraction, w.current_fraction);
    EXPECT_EQ(b.renumber_at, w.renumber_at);
    EXPECT_EQ(b.vacate_at, w.vacate_at);
    EXPECT_EQ(b.occupied_from, w.occupied_from);
    EXPECT_EQ(b.occupied_until, w.occupied_until);
    ASSERT_EQ(b.suppressions.size(), w.suppressions.size());
    for (std::size_t s = 0; s < b.suppressions.size(); ++s) {
      EXPECT_EQ(b.suppressions[s].start, w.suppressions[s].start);
      EXPECT_EQ(b.suppressions[s].end, w.suppressions[s].end);
      EXPECT_EQ(b.suppressions[s].residual_attendance,
                w.suppressions[s].residual_attendance);
      EXPECT_EQ(b.suppressions[s].kind, w.suppressions[s].kind);
    }
    ASSERT_EQ(b.outages.size(), w.outages.size());
    for (std::size_t o = 0; o < b.outages.size(); ++o) {
      EXPECT_EQ(b.outages[o].start, w.outages[o].start);
      EXPECT_EQ(b.outages[o].end, w.outages[o].end);
    }
  }
}

TEST(WorldSlice, MaterializesAnyRangeAndReusesStorage) {
  const auto wc = small_world_config();
  const sim::BlockGenerator gen(wc);
  sim::WorldSlice slice;
  slice.materialize(gen, 10, 30);
  ASSERT_EQ(slice.blocks().size(), 20u);
  EXPECT_EQ(slice.begin_index(), 10u);
  EXPECT_EQ(slice.blocks()[0].id, gen.make(10).id);
  EXPECT_GT(slice.memory_bytes(), 0u);
  // Reuse across a second (overlapping, differently sized) range.
  slice.materialize(gen, 0, 7);
  ASSERT_EQ(slice.blocks().size(), 7u);
  EXPECT_EQ(slice.blocks()[3].id, gen.make(3).id);
  slice.release();
  EXPECT_TRUE(slice.empty());
  EXPECT_EQ(slice.memory_bytes(), 0u);
}

TEST(ShardScheduler, DigestInvariantAcrossShardSizes) {
  const auto wc = small_world_config();
  const auto fc = fleet_config(1);
  const auto ref = reference_run(wc, fc);
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{64}, std::size_t{0}}) {
    core::ShardConfig sc;
    sc.shard_size = shard_size;
    const auto sharded = core::run_sharded_fleet(wc, fc, sc);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(sharded.fleet)),
              core::digest_hex(ref.digest))
        << "shard_size " << shard_size;
    EXPECT_EQ(sharded.fleet.funnel.change_sensitive,
              ref.fleet.funnel.change_sensitive);
    expect_same_aggregate(ref.aggregate, sharded.aggregate);
  }
}

TEST(ShardScheduler, DigestInvariantAcrossThreadCounts) {
  const auto wc = small_world_config();
  const auto ref = reference_run(wc, fleet_config(1));
  for (const int threads : {1, 8}) {
    core::ShardConfig sc;
    sc.shard_size = 7;
    sc.max_resident = 4;
    const auto sharded = core::run_sharded_fleet(wc, fleet_config(threads), sc);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(sharded.fleet)),
              core::digest_hex(ref.digest))
        << "threads " << threads;
    expect_same_aggregate(ref.aggregate, sharded.aggregate);
  }
}

TEST(ShardScheduler, DigestInvariantUnderFaultPlan) {
  const auto wc = small_world_config();
  auto fc = fleet_config(2);
  fc.faults = fault::scenario("dropout", fc.dataset.window());
  const auto ref = reference_run(wc, fc);
  for (const std::size_t shard_size : {std::size_t{7}, std::size_t{64}}) {
    core::ShardConfig sc;
    sc.shard_size = shard_size;
    const auto sharded = core::run_sharded_fleet(wc, fc, sc);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(sharded.fleet)),
              core::digest_hex(ref.digest))
        << "shard_size " << shard_size;
  }
  // The degraded rollup must survive the shard merge too.
  core::ShardConfig sc;
  sc.shard_size = 16;
  const auto sharded = core::run_sharded_fleet(wc, fc, sc);
  EXPECT_EQ(sharded.fleet.degradation.degraded_blocks,
            ref.fleet.degradation.degraded_blocks);
  EXPECT_EQ(sharded.fleet.degradation.low_confidence_blocks,
            ref.fleet.degradation.low_confidence_blocks);
}

TEST(ShardScheduler, GridcellBoundaryBlocksAggregateIdentically) {
  // Blocks are jittered around city centers, so plenty land within one
  // jitter sigma of a 2x2-degree gridcell edge; a shard boundary that
  // split a cell's blocks across shards must still total the same
  // per-cell daily counts.  Guard that the property is non-vacuous:
  // this world must actually have multi-cell aggregation.
  const auto wc = small_world_config();
  const auto fc = fleet_config(2);
  const auto ref = reference_run(wc, fc);
  ASSERT_GT(ref.aggregate.by_cell().size(), 1u)
      << "world too small to exercise gridcell boundaries";
  for (const std::size_t shard_size : {std::size_t{1}, std::size_t{13}}) {
    core::ShardConfig sc;
    sc.shard_size = shard_size;
    sc.max_resident = 3;
    const auto sharded = core::run_sharded_fleet(wc, fc, sc);
    expect_same_aggregate(ref.aggregate, sharded.aggregate);
  }
}

TEST(ShardScheduler, RetentionOffLeavesNoSeriesBytes) {
  const auto wc = small_world_config();
  const auto fc = fleet_config(2);
  core::ShardConfig sc;
  sc.shard_size = 50;
  const auto sharded = core::run_sharded_fleet(wc, fc, sc);
  EXPECT_TRUE(sharded.fleet.series.empty());
  EXPECT_EQ(sharded.fleet.series.memory_bytes(), 0u);
  // The per-shard stores existed while resident, then were reclaimed.
  EXPECT_GT(sharded.stats.peak_resident_bytes, 0u);
}

TEST(ShardScheduler, ResidencyStaysWithinMaxResident) {
  const auto wc = small_world_config();
  core::ShardConfig sc;
  sc.shard_size = 10;  // 50+ shards
  sc.max_resident = 2;
  const auto sharded = core::run_sharded_fleet(wc, fleet_config(8), sc);
  EXPECT_GE(sharded.stats.shards, 50u);
  EXPECT_LE(sharded.stats.peak_resident, sc.max_resident);
  EXPECT_LE(sharded.stats.workers, sc.max_resident);
}

}  // namespace
}  // namespace diurnal
