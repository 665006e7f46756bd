// Fleet-digest determinism gate (tier-1): the full pipeline over the
// reference world must land on one golden digest regardless of thread
// count.  The digest hashes the funnel, every per-block verdict, and
// every detected change, so any nondeterminism — racy accumulation,
// thread-dependent draw, iteration-order dependence — or an unintended
// behavior change in probe/repair/merge/reconstruct/classify/detect
// shows up as a different hex string.  The golden value is shared with
// the bench-smoke CI gate (bench/common.cc).
//
// Suite size note: the full ctest suite is 403 tests as of the
// validation harness (tests/test_validate.cc adds 19, plus the
// golden_mix cross-pin below); if a refactor drops registered tests,
// this gate may still pass while coverage silently shrank -- check
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/digest.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "recon/block_recon.h"
#include "sim/world.h"
#include "validate/harness.h"
#include "validate/scenario.h"

namespace diurnal {
namespace {

// The bench_fleet reference configuration (BENCH_fleet.json provenance).
constexpr char kGoldenDigest[] = "f94c66488def6938";

const sim::World& golden_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 2000;
    c.seed = 1;
    return c;
  }());
  return world;
}

core::FleetConfig golden_config(int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = threads;
  return fc;
}

TEST(FleetDigest, GoldenDigestSingleThread) {
  const auto result = core::run_fleet(golden_world(), golden_config(1));
  EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest);
}

TEST(FleetDigest, GoldenDigestEightThreads) {
  const auto result = core::run_fleet(golden_world(), golden_config(8));
  EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest);
}

TEST(FleetDigest, FaultPlanRunIsThreadCountInvariant) {
  // A seeded fault plan must not reintroduce thread-count dependence:
  // injection is a pure function of (plan seed, observer, time), so the
  // degraded fleet hashes identically at 1 and 8 workers.
  auto fc1 = golden_config(1);
  fc1.faults = fault::scenario("dropout", fc1.dataset.window());
  const auto d1 = core::fleet_digest(core::run_fleet(golden_world(), fc1));

  auto fc8 = golden_config(8);
  fc8.faults = fault::scenario("dropout", fc8.dataset.window());
  const auto d8 = core::fleet_digest(core::run_fleet(golden_world(), fc8));

  EXPECT_EQ(core::digest_hex(d1), core::digest_hex(d8));
  // And the degraded run must differ from the healthy golden run — the
  // digest actually sees the fault layer's effects.
  EXPECT_NE(core::digest_hex(d1), kGoldenDigest);
}

TEST(FleetDigest, BatchWidthInvariantOnBatchDrive) {
  // The batched SoA kernels promise bit identity at every width: a
  // one-lane batch (width 1), a ragged odd width, a narrow batch, and
  // the default full width must all land on the golden digest.
  for (const int width : {1, 2, 5}) {
    auto fc = golden_config(2);
    fc.analysis_batch_width = width;
    const auto result = core::run_fleet(golden_world(), fc);
    EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest)
        << "width " << width;
  }
}

TEST(FleetDigest, BatchWidthInvariantOnStreamingDrive) {
  // The incremental drive batches flushes at worker boundaries, a
  // different grouping than the batch drive — the digest must not see
  // the difference at any width.
  for (const int width : {1, 5, 0}) {
    auto fc = golden_config(2);
    fc.analysis_batch_width = width;
    core::StreamingFleet fleet(golden_world(), fc);
    const util::SimTime mid =
        fleet.window_start() +
        (fleet.window_end() - fleet.window_start()) / 2;
    fleet.advance_to(mid);
    fleet.advance_to(fleet.window_end());
    const auto result = fleet.finalize();
    EXPECT_EQ(core::digest_hex(core::fleet_digest(result)), kGoldenDigest)
        << "width " << width;
  }
}

TEST(FleetDigest, BatchWidthInvariantUnderFaults) {
  // Degraded runs route blocks through the low-evidence annotations and
  // NaN-gap kernels; one-lane and full-width batches must still agree.
  auto one_lane_fc = golden_config(1);
  one_lane_fc.faults = fault::scenario("dropout", one_lane_fc.dataset.window());
  one_lane_fc.analysis_batch_width = 1;
  const auto one_lane_digest =
      core::fleet_digest(core::run_fleet(golden_world(), one_lane_fc));

  auto batched_fc = golden_config(2);
  batched_fc.faults = fault::scenario("dropout", batched_fc.dataset.window());
  batched_fc.analysis_batch_width = 0;
  const auto batched_digest =
      core::fleet_digest(core::run_fleet(golden_world(), batched_fc));

  EXPECT_EQ(core::digest_hex(one_lane_digest),
            core::digest_hex(batched_digest));
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_classification(const core::BlockClassification& a,
                                const core::BlockClassification& b) {
  EXPECT_EQ(a.responsive, b.responsive);
  EXPECT_EQ(a.diurnal, b.diurnal);
  EXPECT_EQ(a.wide_swing, b.wide_swing);
  EXPECT_EQ(a.change_sensitive, b.change_sensitive);
  EXPECT_EQ(a.low_confidence, b.low_confidence);
  EXPECT_EQ(bits(a.evidence_fraction), bits(b.evidence_fraction));
  const auto& ad = a.diurnal_detail;
  const auto& bd = b.diurnal_detail;
  EXPECT_EQ(ad.diurnal, bd.diurnal);
  EXPECT_EQ(bits(ad.power_ratio), bits(bd.power_ratio));
  EXPECT_EQ(bits(ad.total_power), bits(bd.total_power));
  EXPECT_EQ(bits(ad.diurnal_power), bits(bd.diurnal_power));
  EXPECT_EQ(ad.segments, bd.segments);
  EXPECT_EQ(ad.segments_diurnal, bd.segments_diurnal);
  const auto& as = a.swing_detail;
  const auto& bs = b.swing_detail;
  EXPECT_EQ(as.wide, bs.wide);
  EXPECT_EQ(as.wide_days, bs.wide_days);
  EXPECT_EQ(as.total_days, bs.total_days);
  EXPECT_EQ(bits(as.max_daily_swing), bits(bs.max_daily_swing));
  EXPECT_EQ(as.best_window_wide, bs.best_window_wide);
}

// Runs the fleet over `world`, then every probed block again on its
// own: observed as the fleet observes it and judged by
// core::analyze_block.  Each verdict and change must equal the fleet's,
// doubles bit for bit.  Returns the low-evidence changes of
// change-sensitive blocks.
int expect_per_block_verdicts_match_fleet(const sim::World& world,
                                          const core::FleetConfig& fc) {
  const auto fleet = core::run_fleet(world, fc);
  const recon::BlockObservationConfig oc = fc.observation(fc.dataset);
  int low_evidence = 0;
  for (std::size_t i = 0; i < world.blocks().size(); ++i) {
    const auto& block = world.blocks()[i];
    if (block.eb_count == 0) continue;  // never probed by the fleet
    SCOPED_TRACE(block.id.to_string());
    const auto got =
        core::analyze_block(recon::observe_and_reconstruct(block, oc),
                            fc.classifier, fc.detector, fc.run_detection);
    const auto& want = fleet.outcomes[i];
    expect_same_classification(got.cls, want.cls);
    EXPECT_EQ(got.changes.size(), want.changes.size());
    if (got.changes.size() != want.changes.size()) continue;
    for (std::size_t k = 0; k < got.changes.size(); ++k) {
      const auto& a = got.changes[k];
      const auto& b = want.changes[k];
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.alarm, b.alarm);
      EXPECT_EQ(a.end, b.end);
      EXPECT_EQ(a.direction, b.direction);
      EXPECT_EQ(bits(a.amplitude), bits(b.amplitude));
      EXPECT_EQ(bits(a.amplitude_addresses), bits(b.amplitude_addresses));
      EXPECT_EQ(a.filtered_as_outage, b.filtered_as_outage);
      EXPECT_EQ(a.filtered_small, b.filtered_small);
      EXPECT_EQ(a.filtered_phase_only, b.filtered_phase_only);
      EXPECT_EQ(a.low_evidence, b.low_evidence);
      low_evidence += a.low_evidence;
    }
  }
  return low_evidence;
}

TEST(PerBlockVerdicts, MatchTheFleetOnEveryGoldenBlock) {
  expect_per_block_verdicts_match_fleet(golden_world(), golden_config(0));
}

TEST(PerBlockVerdicts, MatchTheFleetUnderFaults) {
  // Every observer dark for two days mid-window: the coverage gap makes
  // changes near it low-evidence, and the comparison must cover some.
  auto fc = golden_config(0);
  const auto w = fc.dataset.window();
  fault::OutageSpec blackout;
  blackout.start = w.start + 12 * util::kSecondsPerDay;
  blackout.end = w.start + 14 * util::kSecondsPerDay;
  fc.faults.outages.push_back(blackout);
  EXPECT_GT(expect_per_block_verdicts_match_fleet(golden_world(), fc), 0);
}

TEST(PerBlockVerdicts, MatchTheFleetOnASurveyDataset) {
  // A survey dataset probes every address every round; a per-block
  // caller must observe it that way too, not Trinocular-style.  Survey
  // probing is costly, so the world is small.
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 40;
    c.seed = 1;
    return c;
  }());
  auto fc = golden_config(0);
  fc.dataset = core::dataset("2020it89-w");
  ASSERT_TRUE(fc.dataset.survey);
  expect_per_block_verdicts_match_fleet(world, fc);
}

TEST(FleetDigest, ValidationGoldenMixScenarioReproducesGoldenDigest) {
  // The validation catalog's golden_mix scenario is the same world and
  // pipeline configuration as this file's reference run: the accuracy
  // harness and the perf gate must stay anchored to one digest, so an
  // accuracy "improvement" that silently changes default pipeline
  // behavior fails here.
  const auto* s = validate::find_scenario("golden_mix");
  ASSERT_NE(s, nullptr);
  const auto run = validate::run_scenario(*s, sim::World(s->world),
                                          validate::Drive::kBatch, 4);
  EXPECT_EQ(core::digest_hex(run.digest), kGoldenDigest);
  EXPECT_TRUE(validate::check_expectations(*s, run).empty());
}

}  // namespace
}  // namespace diurnal
