// Tests for reconstruction: incremental state, 1-loss repair, FBS
// spans, and the observer-health check.
#include <gtest/gtest.h>

#include <cmath>

#include "oracle.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/health.h"
#include "recon/reconstruct.h"
#include "recon/repair.h"
#include "sim/world.h"

namespace diurnal::recon {
namespace {

using oracle::reconstruct;
using probe::Observation;
using probe::ObservationVec;
using probe::ProbeWindow;
using util::time_of;

TEST(Reconstruct, Figure2Example) {
  // The paper's Figure 2: a 4-address block over 10 rounds.  Rows are
  // address states; gray cells mark when each address is scanned.
  //   .1: 0 0 0 0 1 1 1 1 1 1   scanned at rounds 1, 5, 9
  //   .2: 0 0 0 0 0 0 1 1 1 1   scanned at rounds 2, 6(->0), 7(->1)
  //   .3: 1 1 1 1 0 0 1 1 1 1   scanned at rounds 3(->1), 5(->0), 8(->1)
  //   .4: 1 1 1 1 1 1 1 1 1 1   scanned at rounds 4, 10
  // Estimates after each round: -, 2, 2, 2, 3, 2, 2, 3, 4, 4.
  ObservationVec obs{
      {1 * 60, 0, false}, {2 * 60, 1, false}, {3 * 60, 2, true},
      {4 * 60, 3, true},  {5 * 60, 0, true},  {5 * 60 + 1, 2, false},
      {6 * 60, 1, false}, {7 * 60, 1, true},  {8 * 60, 2, true},
      {9 * 60, 0, true},  {10 * 60, 3, true},
  };
  ReconOptions opt;
  opt.sample_step = 60;
  const auto r = reconstruct(obs, 4, ProbeWindow{0, 11 * 60}, opt);
  ASSERT_EQ(r.counts.size(), 11u);
  // Sample i covers [i*60,(i+1)*60) and holds the estimate at the start
  // of its interval: nothing up through round 2, .3 up (round 3), .4 up
  // (round 4), .1 up at the round-5 boundary (3) before .3 drops (2),
  // .2 up (round 7), .3 restored (round 8), then saturated at 4.
  const std::vector<double> expected{0, 0, 0, 1, 2, 3, 2, 3, 4, 4, 4};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.counts[i], expected[i]) << "sample " << i;
  }
  EXPECT_TRUE(r.responsive);
  EXPECT_EQ(r.observed_targets, 4);
  EXPECT_EQ(r.eb_count, 4);
}

TEST(Reconstruct, HoldsStateUntilRescanned) {
  // One address goes up at t=0 and is never rescanned: the estimate
  // stays 1 for the whole window.
  ObservationVec obs{{0, 0, true}};
  ReconOptions opt;
  opt.sample_step = 100;
  const auto r = reconstruct(obs, 8, ProbeWindow{0, 1000}, opt);
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    EXPECT_EQ(r.counts[i], 1.0);
  }
}

TEST(Reconstruct, EmptyAndUnresponsive) {
  const auto r = reconstruct({}, 16, ProbeWindow{0, 6600});
  EXPECT_FALSE(r.responsive);
  EXPECT_EQ(r.mean_reply_rate, 0.0);
  EXPECT_EQ(r.observed_targets, 0);
  const auto r0 = reconstruct({}, 0, ProbeWindow{0, 6600});
  EXPECT_EQ(r0.counts.size(), 0u);
}

TEST(Reconstruct, ReplyRate) {
  ObservationVec obs{{0, 0, true}, {1, 1, false}, {2, 2, true}, {3, 3, false}};
  const auto r = reconstruct(obs, 4, ProbeWindow{0, 100});
  EXPECT_DOUBLE_EQ(r.mean_reply_rate, 0.5);
  EXPECT_EQ(r.observations, 4u);
}

TEST(Reconstruct, FbsSpansShrinkWithFasterScanning) {
  // Address i scanned every 4 hours vs every 16 hours.
  auto make_obs = [](int eb, int interval_s, int duration_s) {
    ObservationVec v;
    for (int t = 0; t * interval_s < duration_s; ++t) {
      v.push_back(Observation{static_cast<std::uint32_t>(t * interval_s),
                              static_cast<std::uint8_t>(t % eb), true});
    }
    return v;
  };
  const int day = 86400;
  ReconOptions opt;
  const auto fast =
      reconstruct(make_obs(16, 900, 4 * day), 16, ProbeWindow{0, 4 * day}, opt);
  const auto slow =
      reconstruct(make_obs(16, 3600, 4 * day), 16, ProbeWindow{0, 4 * day}, opt);
  ASSERT_FALSE(fast.fbs_spans_seconds.empty());
  ASSERT_FALSE(slow.fbs_spans_seconds.empty());
  EXPECT_LT(fast.fbs_median_seconds(), slow.fbs_median_seconds());
  // Full cover of 16 addresses at one probe per 900 s ~ 14400 s.
  EXPECT_NEAR(fast.fbs_median_seconds(), 16 * 900, 900 * 2);
}

// The 1-loss rule as the engine runs it: one StreamRepair over the
// whole stream, ingested from absolute position 0, then finished.
RepairStats repair(ObservationVec& stream) {
  StreamRepair r;
  r.ingest(stream, 0);
  r.finish();
  return r.stats();
}

TEST(Repair, FixesLoneLoss) {
  // 1 0 1 per address becomes 1 1 1.
  ObservationVec s{{0, 5, true}, {10, 5, false}, {20, 5, true}};
  const auto stats = repair(s);
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_TRUE(s[1].up);
}

TEST(Repair, LeavesRealTransitionsAlone) {
  // 0 0 1 (001), 1 1 0 (110), and 1 0 0 stay untouched.
  ObservationVec s{
      {0, 1, false}, {1, 1, false}, {2, 1, true},   // 001
      {0, 2, true},  {1, 2, true},  {2, 2, false},  // 110
      {0, 3, true},  {1, 3, false}, {2, 3, false},  // 100
  };
  const auto before = s;
  const auto stats = repair(s);
  EXPECT_EQ(stats.repaired, 0u);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i].up, before[i].up);
}

TEST(Repair, PerAddressIndependence) {
  // Interleaved addresses: the 101 pattern must be tracked per address,
  // not across the merged order.
  ObservationVec s{
      {0, 1, true},  {1, 2, false}, {2, 1, false},
      {3, 2, true},  {4, 1, true},  {5, 2, false},
  };
  const auto stats = repair(s);
  // Address 1: 1 0 1 -> repaired. Address 2: 0 1 0 -> not repaired.
  EXPECT_EQ(stats.repaired, 1u);
  EXPECT_TRUE(s[2].up);
  EXPECT_FALSE(s[1].up);
  EXPECT_FALSE(s[5].up);
}

TEST(Repair, DoubleLossNotRepaired) {
  // 1 0 0 1: back-to-back losses are rare (p^2) and not repaired.
  ObservationVec s{{0, 9, true}, {1, 9, false}, {2, 9, false}, {3, 9, true}};
  const auto stats = repair(s);
  EXPECT_EQ(stats.repaired, 0u);
}

TEST(Repair, ChainOfRepairs) {
  // 1 0 1 0 1: both lone zeros repaired.
  ObservationVec s{
      {0, 4, true}, {1, 4, false}, {2, 4, true}, {3, 4, false}, {4, 4, true}};
  const auto stats = repair(s);
  EXPECT_EQ(stats.repaired, 2u);
  for (const auto& o : s) EXPECT_TRUE(o.up);
}

// --- end-to-end reconstruction against ground truth ---

sim::World& recon_world() {
  static sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 0;  // specials only
    c.seed = 5;
    return c;
  }());
  return world;
}

TEST(BlockRecon, TracksGroundTruthOnSurveyData) {
  auto& world = recon_world();
  const auto* block = world.find(world.usc_office_block());
  BlockObservationConfig oc;
  oc.observers = {probe::site('w')};
  oc.window = ProbeWindow{time_of(2020, 1, 6), time_of(2020, 1, 20)};
  oc.prober.kind = probe::ProberKind::kSurvey;
  oc.loss = probe::LossModel(probe::LossModelConfig{0, 0, 0, 'w', 1, false});
  const auto r = observe_and_reconstruct(*block, oc);
  const auto truth =
      world.truth_series(*block, oc.window.start, oc.window.end, 3600);
  ASSERT_EQ(r.counts.size(), truth.size());
  // Survey probing with no loss tracks truth within one 11-minute round
  // of staleness: the hourly sample reflects either the state at the
  // hour mark or the state one round earlier (device schedules switch
  // exactly on hour marks).
  for (std::size_t i = 2; i < truth.size(); ++i) {
    const double diff_now = std::abs(r.counts[i] - truth[i]);
    const double diff_prev = std::abs(r.counts[i] - truth[i - 1]);
    EXPECT_LE(std::min(diff_now, diff_prev), 3.0) << i;
  }
}

TEST(BlockRecon, MoreObserversShortenFbs) {
  // Four observers cover faster than one, but far from 4x: the cursors
  // share the same probe order and advance in lockstep through the busy
  // hours, so the gain comes mostly from closing the largest gap between
  // observer offsets (section 3.1 reports 65% vs 48% of blocks within
  // 6 hours, not a proportional speedup).  Aggregate over several blocks
  // to avoid single-block offset luck.
  sim::WorldConfig wc;
  wc.num_blocks = 300;
  wc.seed = 41;
  const sim::World world(wc);
  BlockObservationConfig one;
  one.observers = probe::sites_from_string("e");
  one.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 29)};
  BlockObservationConfig four = one;
  four.observers = probe::sites_from_string("ejnw");

  double sum1 = 0.0, sum4 = 0.0;
  int measured = 0;
  for (const auto& b : world.blocks()) {
    if (!sim::is_diurnal_category(b.category) || b.eb_count < 48) continue;
    const auto r1 = observe_and_reconstruct(b, one);
    const auto r4 = observe_and_reconstruct(b, four);
    if (r1.fbs_spans_seconds.empty() || r4.fbs_spans_seconds.empty()) continue;
    sum1 += r1.fbs_median_seconds();
    sum4 += r4.fbs_median_seconds();
    if (++measured >= 12) break;
  }
  ASSERT_GE(measured, 6);
  EXPECT_LT(sum4, sum1 * 0.85) << "mean FBS " << sum4 / measured << " vs "
                               << sum1 / measured;
}

TEST(BlockRecon, AdditionalObservationsShortenFbs) {
  auto& world = recon_world();
  const auto* vpn = world.find(world.usc_vpn_block());
  BlockObservationConfig base;
  base.observers = probe::sites_from_string("ejnw");
  base.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 15)};
  BlockObservationConfig extra = base;
  extra.additional_observations = true;
  const auto r0 = observe_and_reconstruct(*vpn, base);
  const auto r1 = observe_and_reconstruct(*vpn, extra);
  EXPECT_LT(r1.fbs_median_seconds(), r0.fbs_median_seconds());
  // Section 2.8's goal: all blocks scanned within ~6 hours.
  EXPECT_LE(r1.fbs_median_seconds(), 6.5 * 3600);
}

TEST(BlockRecon, OneLossRepairRestoresCongestedObserver) {
  // A Chinese block behind the congested w link: repair should raise
  // w's reply rate toward the healthy observers'.
  sim::WorldConfig wc;
  wc.num_blocks = 400;
  wc.seed = 21;
  sim::World world(wc);
  const sim::BlockProfile* target = nullptr;
  probe::LossModel loss{};
  for (const auto& b : world.blocks()) {
    if (b.category == sim::BlockCategory::kServerFarm &&
        loss.path_congested(probe::site('w'), b) && b.eb_count >= 32) {
      target = &b;
      break;
    }
  }
  ASSERT_NE(target, nullptr) << "no congested server block in sample";

  BlockObservationConfig with;
  with.observers = probe::sites_from_string("ejnw");
  with.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 22)};
  BlockObservationConfig without = with;
  without.one_loss_repair = false;

  // Each observer alone is the same pipeline over a one-observer config.
  double w_with = 0, w_without = 0, e_without = 0;
  for (const auto& spec : with.observers) {
    BlockObservationConfig single = with;
    single.observers = {spec};
    const double rate_with =
        observe_and_reconstruct(*target, single).mean_reply_rate;
    single.one_loss_repair = false;
    const double rate_without =
        observe_and_reconstruct(*target, single).mean_reply_rate;
    if (spec.code == 'w') {
      w_with = rate_with;
      w_without = rate_without;
    }
    if (spec.code == 'e') e_without = rate_without;
  }
  EXPECT_LT(w_without, e_without - 0.02);  // congestion visible
  EXPECT_GT(w_with, w_without + 0.01);     // repair helps
  // Combined reconstruction with repair beats without.
  EXPECT_GE(observe_and_reconstruct(*target, with).mean_reply_rate,
            observe_and_reconstruct(*target, without).mean_reply_rate);
}

TEST(Health, FlagsFaultyObservers) {
  sim::WorldConfig wc;
  wc.num_blocks = 500;
  wc.seed = 31;
  sim::World world(wc);
  HealthCheckConfig cfg;
  cfg.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 8)};
  cfg.sample_blocks = 40;
  const auto health =
      check_observers(world, probe::trinocular_sites(), cfg);
  ASSERT_EQ(health.size(), 6u);
  std::string codes;
  for (const auto& h : health) {
    const bool should_be_faulty = h.code == 'c' || h.code == 'g';
    EXPECT_EQ(!h.healthy, should_be_faulty) << h.code << " dev " << h.deviation;
    if (h.healthy) codes += h.code;
  }
  EXPECT_EQ(codes, "ejnw");

  // Bit-exact pins of every site's figures: a per-block reply rate is
  // positives over probes of the site's raw stream, so any change to how
  // the check observes a block moves them.
  struct Pin {
    char code;
    double deviation, mean_reply_rate;
  };
  const Pin pins[] = {
      {'c', 0x1.8e26d4c32dc52p-3, 0x1.f995f4ca8d40ep-2},
      {'e', 0x1.81a67b80a7d0ap-8, 0x1.db91881c2ae43p-2},
      {'g', 0x1.8adc077f6e7a9p-3, 0x1.f8b424cd4aa4ap-2},
      {'j', 0x1.cb68840dd9bfdp-8, 0x1.dd2c7d4bff03bp-2},
      {'n', 0x1.abd2088c0a7a5p-8, 0x1.db86bdc791c15p-2},
      {'w', 0x1.094e69059ca3ep-7, 0x1.d874b5a5a3a13p-2},
  };
  for (std::size_t i = 0; i < health.size(); ++i) {
    EXPECT_EQ(health[i].code, pins[i].code);
    EXPECT_EQ(health[i].deviation, pins[i].deviation) << pins[i].code;
    EXPECT_EQ(health[i].mean_reply_rate, pins[i].mean_reply_rate)
        << pins[i].code;
  }
}

TEST(BlockRecon, ZeroObserversYieldsUnresponsiveNotCrash) {
  // A block that no observer covers (degraded fleets can lose a whole
  // site set): the merge sees zero streams, reconstruction sees zero
  // observations, and the block must come out unresponsive with zero
  // evidence rather than crashing or inventing state.
  sim::WorldConfig wc;
  wc.num_blocks = 1;
  wc.seed = 3;
  wc.include_special_blocks = false;
  const sim::World world(wc);
  BlockObservationConfig oc;
  oc.observers = {};  // nobody probes
  oc.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 8)};
  const auto r = observe_and_reconstruct(world.blocks()[0], oc);
  EXPECT_FALSE(r.responsive);
  EXPECT_EQ(r.evidence_fraction, 0.0);
}

TEST(BlockRecon, StreamEndingBeforeWindowOpens) {
  // An observer that dies before the classify window opens delivers
  // nothing inside it.  With faults taking the only observer down for
  // the entire window, reconstruction must degrade to an empty,
  // zero-evidence result instead of carrying pre-window state in.
  sim::WorldConfig wc;
  wc.num_blocks = 40;
  wc.seed = 29;
  const sim::World world(wc);
  BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("w");
  oc.window = ProbeWindow{time_of(2020, 1, 1), time_of(2020, 1, 15)};
  fault::FaultPlan plan;
  plan.outages.push_back(
      {'w', fault::OutageKind::kHardDown, oc.window.start, oc.window.end});
  oc.faults = &plan;
  for (const auto& block : world.blocks()) {
    if (block.eb_count == 0) continue;
    const auto r = observe_and_reconstruct(block, oc);
    EXPECT_FALSE(r.responsive);
    EXPECT_EQ(r.evidence_fraction, 0.0);
  }
}

TEST(Health, AllHealthyIn2019) {
  sim::WorldConfig wc;
  wc.num_blocks = 400;
  wc.seed = 33;
  sim::World world(wc);
  HealthCheckConfig cfg;
  cfg.window = ProbeWindow{time_of(2019, 11, 1), time_of(2019, 11, 8)};
  cfg.sample_blocks = 40;
  const auto health =
      check_observers(world, probe::trinocular_sites(), cfg);
  ASSERT_EQ(health.size(), 6u);
  for (const auto& h : health) {
    EXPECT_TRUE(h.healthy) << h.code << " dev " << h.deviation;
  }
}

}  // namespace
}  // namespace diurnal::recon
