// Cross-module property tests: invariants that must hold for arbitrary
// inputs, checked over parameterized sweeps of seeds and configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/diurnal_test.h"
#include "analysis/stats.h"
#include "oracle.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/repair.h"
#include "sim/world.h"
#include "util/rng.h"

namespace diurnal {
namespace {

using probe::ObservationVec;
using probe::ProbeWindow;

// One shared world of assorted blocks for the sweeps.
const sim::World& prop_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 120;
    c.seed = 314;
    return c;
  }());
  return world;
}

// Pick the i-th block with targets.
const sim::BlockProfile& nth_responsive_block(std::size_t i) {
  std::size_t seen = 0;
  for (const auto& b : prop_world().blocks()) {
    if (b.eb_count < 4) continue;
    if (seen++ == i) return b;
  }
  return prop_world().blocks().front();
}

class BlockSweep : public ::testing::TestWithParam<int> {};

// Adding an observer can only add observations: the merged stream grows
// and the set of observed targets never shrinks.
TEST_P(BlockSweep, MoreObserversNeverObserveLess) {
  const auto& block = nth_responsive_block(static_cast<std::size_t>(GetParam()));
  recon::BlockObservationConfig one;
  one.observers = probe::sites_from_string("e");
  one.window = ProbeWindow{0, 14 * util::kSecondsPerDay};
  recon::BlockObservationConfig four = one;
  four.observers = probe::sites_from_string("ejnw");
  const auto r1 = recon::observe_and_reconstruct(block, one);
  const auto r4 = recon::observe_and_reconstruct(block, four);
  EXPECT_GE(r4.observations, r1.observations);
  EXPECT_GE(r4.observed_targets, r1.observed_targets);
}

// 1-loss repair is idempotent and can only add positive observations.
TEST_P(BlockSweep, RepairIdempotentAndMonotone) {
  const auto& block = nth_responsive_block(static_cast<std::size_t>(GetParam()));
  probe::LossModel loss;  // default congestion may apply: good
  auto stream = oracle::probe_block(block, probe::site('w'), loss,
                                    ProbeWindow{0, 7 * util::kSecondsPerDay});
  auto count_up = [](const ObservationVec& v) {
    std::size_t n = 0;
    for (const auto& o : v) n += o.up;
    return n;
  };
  const std::size_t before = count_up(stream);
  oracle::one_loss_repair(stream);
  const std::size_t after_once = count_up(stream);
  EXPECT_GE(after_once, before);
  auto again = stream;
  const auto stats = oracle::one_loss_repair(again);
  EXPECT_EQ(stats.repaired, 0u);  // idempotent
  EXPECT_EQ(count_up(again), after_once);
}

// Reconstruction counts are bounded by the target-list size, and the
// reply rate is a valid probability.
TEST_P(BlockSweep, ReconBounds) {
  const auto& block = nth_responsive_block(static_cast<std::size_t>(GetParam()));
  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("jn");
  oc.window = ProbeWindow{0, 10 * util::kSecondsPerDay};
  const auto r = recon::observe_and_reconstruct(block, oc);
  EXPECT_GE(r.mean_reply_rate, 0.0);
  EXPECT_LE(r.mean_reply_rate, 1.0);
  EXPECT_LE(r.observed_targets, r.eb_count);
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    EXPECT_GE(r.counts[i], 0.0);
    EXPECT_LE(r.counts[i], static_cast<double>(r.eb_count));
  }
  for (const double s : r.fbs_spans_seconds) EXPECT_GT(s, 0.0);
}

// Merging preserves every observation and yields a time-ordered stream.
TEST_P(BlockSweep, MergePreservesAndOrders) {
  const auto& block = nth_responsive_block(static_cast<std::size_t>(GetParam()));
  probe::LossModel loss;
  std::vector<ObservationVec> streams;
  std::size_t total = 0;
  for (const char c : {'e', 'j', 'w'}) {
    streams.push_back(oracle::probe_block(
        block, probe::site(c), loss, ProbeWindow{0, 3 * util::kSecondsPerDay}));
    total += streams.back().size();
  }
  ObservationVec merged;
  oracle::merge_observations_into(streams, merged);
  EXPECT_EQ(merged.size(), total);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].rel_time, merged[i].rel_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSweep, ::testing::Range(0, 12));

// --- analysis properties over random series ---

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, ZScoreIsNormalized) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 1);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.normal(rng.uniform(-50, 50), rng.uniform(0.5, 20));
  const auto z = util::TimeSeries(0, 60, v).zscore();
  EXPECT_NEAR(z.mean(), 0.0, 1e-9);
  EXPECT_NEAR(z.stddev(), 1.0, 1e-9);
}

TEST_P(SeedSweep, DiurnalRatioIsAProbability) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 100);
  std::vector<double> v(24 * 28);
  for (auto& x : v) x = std::max(0.0, rng.normal(5, 4));
  const auto r = analysis::test_diurnal(v, 24);
  EXPECT_GE(r.power_ratio, 0.0);
  EXPECT_LE(r.power_ratio, 1.0);
  EXPECT_GE(r.total_power, 0.0);
  EXPECT_GE(r.diurnal_power, 0.0);
}

TEST_P(SeedSweep, QuantilesMonotone) {
  util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 300);
  std::vector<double> v(200);
  for (auto& x : v) x = rng.normal(0, 5);
  double prev = analysis::quantile(v, 0.0);
  for (double q = 0.1; q <= 1.001; q += 0.1) {
    const double cur = analysis::quantile(v, std::min(q, 1.0));
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(0, 8));

// --- world-level invariants ---

TEST(WorldProperties, ActivityOracleRespectsTargetList) {
  for (const auto& b : prop_world().blocks()) {
    // Sampling a handful of times per block keeps this sweep fast.
    for (util::SimTime t = 0; t < 2 * util::kSecondsPerDay;
         t += 7 * util::kSecondsPerHour) {
      const int n = sim::active_count(b, t);
      EXPECT_GE(n, 0);
      EXPECT_LE(n, b.eb_count);
      EXPECT_FALSE(sim::address_active(b, b.eb_count, t));
    }
  }
}

TEST(WorldProperties, SuppressionsAndOutagesWellFormed) {
  for (const auto& b : prop_world().blocks()) {
    for (const auto& s : b.suppressions) {
      EXPECT_LT(s.start, s.end);
      EXPECT_GE(s.residual_attendance, 0.0);
      EXPECT_LE(s.residual_attendance, 1.0);
    }
    for (const auto& o : b.outages) EXPECT_LT(o.start, o.end);
    if (b.occupied_from >= 0 && b.occupied_until >= 0) {
      EXPECT_GE(b.occupied_until - b.occupied_from,
                30 * util::kSecondsPerDay);
    }
  }
}

}  // namespace
}  // namespace diurnal
