// Tests for observers, the loss model, and the probing engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geo/countries.h"
#include "probe/loss_model.h"
#include "probe/observer.h"
#include "oracle.h"
#include "probe/prober.h"
#include "sim/world.h"

namespace diurnal::probe {
namespace {

using oracle::merge_observations_into;
using oracle::probe_block;
using util::SimTime;
using util::time_of;

sim::World& test_world() {
  static sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 300;
    c.seed = 7;
    return c;
  }());
  return world;
}

// A fully always-on block for probing-discipline tests.
sim::BlockProfile always_on_block(int eb) {
  sim::BlockProfile b;
  b.id = net::BlockId::parse("10.0.0.0/24");
  b.category = sim::BlockCategory::kNatGateway;
  b.eb_count = static_cast<std::uint16_t>(eb);
  b.always_on = static_cast<std::uint16_t>(eb);
  b.seed = 1234;
  return b;
}

// A block that never answers.
sim::BlockProfile dead_block(int eb) {
  auto b = always_on_block(eb);
  b.category = sim::BlockCategory::kFirewalled;
  return b;
}

TEST(Observer, SiteRegistry) {
  EXPECT_EQ(trinocular_sites().size(), 6u);
  EXPECT_EQ(site('w').location, "ISI West, Los Angeles");
  EXPECT_THROW(site('z'), std::out_of_range);
  const auto ejnw = sites_from_string("ejnw");
  ASSERT_EQ(ejnw.size(), 4u);
  EXPECT_EQ(ejnw[0].code, 'e');
  EXPECT_EQ(ejnw[3].code, 'w');
  // Distinct phases so observers interleave.
  std::set<SimTime> phases;
  for (const auto& s : trinocular_sites()) phases.insert(s.phase);
  EXPECT_EQ(phases.size(), 6u);
}

TEST(Observer, FaultWindows) {
  EXPECT_TRUE(site('c').faulty_at(time_of(2020, 2, 1)));
  EXPECT_TRUE(site('g').faulty_at(time_of(2020, 6, 30)));
  EXPECT_FALSE(site('c').faulty_at(time_of(2019, 12, 1)));
  EXPECT_FALSE(site('e').faulty_at(time_of(2020, 2, 1)));
  EXPECT_FALSE(site('w').faulty_at(time_of(2020, 2, 1)));
}

TEST(Quarter, IndexAndBoundaries) {
  EXPECT_EQ(quarter_index(time_of(2019, 10, 1)), 3);
  EXPECT_EQ(quarter_index(time_of(2020, 1, 1)), 4);
  EXPECT_EQ(quarter_index(time_of(2020, 3, 31)), 4);
  EXPECT_EQ(quarter_index(time_of(2020, 4, 1)), 5);
  EXPECT_EQ(next_quarter_start(time_of(2019, 11, 15)), time_of(2020, 1, 1));
  EXPECT_EQ(next_quarter_start(time_of(2020, 1, 1)), time_of(2020, 4, 1));
  EXPECT_EQ(next_quarter_start(time_of(2020, 12, 31)), time_of(2021, 1, 1));
}

TEST(AdditionalProbes, QuotaFormula) {
  // |E(b)| / (6*60/11) probes per round, capped at 8 (section 3.2.3).
  EXPECT_EQ(additional_probes_per_round(1), 1);
  EXPECT_EQ(additional_probes_per_round(32), 1);
  EXPECT_EQ(additional_probes_per_round(33), 2);
  EXPECT_EQ(additional_probes_per_round(160), 5);
  EXPECT_EQ(additional_probes_per_round(256), 8);
}

TEST(Prober, TrinocularStopsAtFirstPositive) {
  const auto block = always_on_block(200);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'e', "test", 0, 0, 0};
  const ProbeWindow w{0, 10 * util::kRoundSeconds};
  const auto stream = probe_block(block, obs, no_loss, w);
  // Every probe hits an always-on address: exactly one probe per round.
  EXPECT_EQ(stream.size(), 10u);
  for (const auto& o : stream) EXPECT_TRUE(o.up);
}

TEST(Prober, TrinocularEscalatesWhenDown) {
  // Adaptive rate: 2 probes while believed up, 4 while suspicious
  // (rounds 2-4), then the full 16 to confirm the outage.
  const auto block = dead_block(200);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'e', "test", 0, 0, 0};
  const ProbeWindow w{0, 10 * util::kRoundSeconds};
  const auto stream = probe_block(block, obs, no_loss, w);
  EXPECT_EQ(stream.size(), 2u + 4 + 4 + 4 + 6 * 16);
  for (const auto& o : stream) EXPECT_FALSE(o.up);
}

TEST(Prober, BudgetCappedByBlockSize) {
  const auto block = dead_block(5);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'e', "test", 0, 0, 0};
  const auto stream =
      probe_block(block, obs, no_loss, ProbeWindow{0, 6 * util::kRoundSeconds});
  // Rounds send 2, 4, 4, 4, then escalate, but never beyond |E(b)| = 5.
  EXPECT_EQ(stream.size(), 2u + 4 + 4 + 4 + 5 + 5);
}

TEST(Prober, SurveyProbesAllTargetsEveryRound) {
  const auto block = always_on_block(40);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'w', "test", 0, 0, 0};
  ProberConfig cfg;
  cfg.kind = ProberKind::kSurvey;
  const auto stream = probe_block(block, obs, no_loss,
                                  ProbeWindow{0, 3 * util::kRoundSeconds}, cfg);
  EXPECT_EQ(stream.size(), 120u);
  // Each round covers each address exactly once.
  std::set<std::uint8_t> first_round;
  for (std::size_t i = 0; i < 40; ++i) first_round.insert(stream[i].addr);
  EXPECT_EQ(first_round.size(), 40u);
}

TEST(Prober, AdditionalObserverKeepsProbingPastPositives) {
  const auto block = always_on_block(256);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ProberConfig cfg;
  cfg.kind = ProberKind::kAdditional;
  const auto stream =
      probe_block(block, additional_observer(), no_loss,
                  ProbeWindow{0, 10 * util::kRoundSeconds}, cfg);
  EXPECT_EQ(stream.size(), 80u);  // 8 per round despite positives
}

TEST(Prober, FullCoverTimes) {
  // One observer on an always-up 256 block needs 256 rounds (1.96 days)
  // to see every address -- the paper's section 3.1 worst case.
  const auto block = always_on_block(256);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'e', "test", 0, 0, 0};
  const auto stream = probe_block(
      block, obs, no_loss, ProbeWindow{0, 300 * util::kRoundSeconds});
  std::set<std::uint8_t> seen;
  std::size_t rounds_to_cover = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    seen.insert(stream[i].addr);
    if (seen.size() == 256) {
      rounds_to_cover = i + 1;
      break;
    }
  }
  EXPECT_EQ(rounds_to_cover, 256u);
}

TEST(Prober, SameOrderAcrossObserversWithinQuarter) {
  // All observers probe the same pseudorandom order (different start
  // offsets).  With an always-down block the probe sequence is the raw
  // order; the sequences must be rotations of each other.
  const auto block = dead_block(32);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec a{'e', "a", 0, 0, 0};
  ObserverSpec b{'j', "b", 0, 0, 0};
  // Budgets escalate 2,4,4,4,16,16,...; eight rounds yield > 32 probes.
  const ProbeWindow w{0, 8 * util::kRoundSeconds};
  const auto sa = probe_block(block, a, no_loss, w);
  const auto sb = probe_block(block, b, no_loss, w);
  ASSERT_GE(sa.size(), 32u);
  ASSERT_GE(sb.size(), 32u);
  // Find b's first address within a's first round and check rotation.
  std::vector<std::uint8_t> ra, rb;
  for (int i = 0; i < 32; ++i) {
    ra.push_back(sa[static_cast<std::size_t>(i)].addr);
    rb.push_back(sb[static_cast<std::size_t>(i)].addr);
  }
  auto it = std::find(ra.begin(), ra.end(), rb[0]);
  ASSERT_NE(it, ra.end());
  const std::size_t offset = static_cast<std::size_t>(it - ra.begin());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(rb[i], ra[(offset + i) % 32]) << i;
  }
}

TEST(Prober, OrderReshufflesAtQuarterBoundary) {
  const auto block = dead_block(32);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  ObserverSpec obs{'e', "test", 0, 0, 0};
  // Window straddling 2020-01-01 (quarter boundary); enough rounds for
  // the escalating budget to emit 32+ probes on each side.
  const SimTime boundary = time_of(2020, 1, 1);
  const auto before = probe_block(
      block, obs, no_loss, ProbeWindow{boundary - 6 * util::kRoundSeconds, boundary});
  const auto after = probe_block(
      block, obs, no_loss, ProbeWindow{boundary, boundary + 6 * util::kRoundSeconds});
  std::vector<std::uint8_t> oa, ob;
  for (std::size_t i = 0; i < 32; ++i) {
    oa.push_back(before[i].addr);
    ob.push_back(after[i].addr);
  }
  EXPECT_NE(oa, ob);  // different permutation after the boundary
}

TEST(Prober, DeterministicStreams) {
  auto& world = test_world();
  const auto& block = *std::find_if(
      world.blocks().begin(), world.blocks().end(),
      [](const sim::BlockProfile& b) { return b.eb_count > 16; });
  LossModel loss;
  ObserverSpec obs = site('w');
  const ProbeWindow w{0, 100 * util::kRoundSeconds};
  const auto s1 = probe_block(block, obs, loss, w);
  const auto s2 = probe_block(block, obs, loss, w);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].rel_time, s2[i].rel_time);
    EXPECT_EQ(s1[i].addr, s2[i].addr);
    EXPECT_EQ(s1[i].up, s2[i].up);
  }
}

TEST(Prober, EmptyCases) {
  LossModel loss;
  ObserverSpec obs = site('w');
  EXPECT_TRUE(probe_block(dead_block(0), obs, loss, ProbeWindow{0, 6600}).empty());
  const auto block = always_on_block(8);
  EXPECT_TRUE(probe_block(block, obs, loss, ProbeWindow{100, 100}).empty());
}

TEST(LossModel, CongestedPathSelection) {
  LossModelConfig cfg;
  LossModel model(cfg);
  auto& world = test_world();
  int congested_cn = 0, total_cn = 0, congested_other = 0;
  for (const auto& b : world.blocks()) {
    const auto& code = geo::countries()[b.country].code;
    const bool c = model.path_congested(site('w'), b);
    if (code == "CN") {
      ++total_cn;
      congested_cn += c;
    } else if (code != "MA") {
      congested_other += c;
    }
    // Healthy observers never see the congested link.
    EXPECT_FALSE(model.path_congested(site('e'), b));
  }
  EXPECT_GT(total_cn, 10);
  EXPECT_NEAR(static_cast<double>(congested_cn) / total_cn, 0.25, 0.15);
  EXPECT_EQ(congested_other, 0);
}

TEST(LossModel, DiurnalLossShape) {
  LossModel model;
  auto& world = test_world();
  const sim::BlockProfile* cn_block = nullptr;
  for (const auto& b : world.blocks()) {
    if (geo::countries()[b.country].code == "CN" &&
        model.path_congested(site('w'), b)) {
      cn_block = &b;
      break;
    }
  }
  ASSERT_NE(cn_block, nullptr);
  // Evening local busy-hour loss far exceeds the overnight rate.
  const double busy = model.congested_loss_at_hour(21);
  const double quiet = model.congested_loss_at_hour(4);
  EXPECT_GT(busy, 0.10);
  EXPECT_LT(quiet, 0.05);
  // Another observer reaches the block over a healthy path, which the
  // prober charges only the flat base loss.
  EXPECT_FALSE(model.path_congested(site('e'), *cn_block));
}

TEST(Merge, OrdersByTime) {
  ObservationVec a{{10, 1, true}, {30, 2, false}};
  ObservationVec b{{5, 3, true}, {20, 4, true}, {40, 5, false}};
  ObservationVec c{{25, 6, true}};
  ObservationVec merged;
  merge_observations_into({a, b, c}, merged);
  ASSERT_EQ(merged.size(), 6u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].rel_time, merged[i].rel_time);
  }
  // The output is replaced, not appended to.
  merge_observations_into({}, merged);
  EXPECT_TRUE(merged.empty());
  merged.push_back({1, 1, true});
  merge_observations_into({ObservationVec{}, ObservationVec{}}, merged);
  EXPECT_TRUE(merged.empty());
}

TEST(Merge, CollidingTimestampsKeepStreamOrder) {
  // Observers with coinciding phases produce equal rel_times; the merge
  // contract is a total order on (rel_time, source-stream index), so
  // collisions must come out grouped by stream index, not in an
  // implementation-defined order.
  ObservationVec a{{10, 1, true}, {20, 1, false}, {20, 2, true}};
  ObservationVec b{{10, 7, false}, {20, 7, true}};
  ObservationVec c{{10, 9, true}, {20, 9, false}, {30, 9, true}};
  ObservationVec merged;
  merge_observations_into({a, b, c}, merged);
  ASSERT_EQ(merged.size(), 8u);
  // rel_time 10: streams 0, 1, 2; rel_time 20: stream 0 twice (its own
  // internal order preserved), then 1, then 2; rel_time 30: stream 2.
  const std::uint8_t expect_addr[] = {1, 7, 9, 1, 2, 7, 9, 9};
  const std::uint32_t expect_time[] = {10, 10, 10, 20, 20, 20, 20, 30};
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].rel_time, expect_time[i]) << "index " << i;
    EXPECT_EQ(merged[i].addr, expect_addr[i]) << "index " << i;
  }
}

TEST(Merge, ZeroAndSingleStreamEdges) {
  // No streams and no observations: both legal, both empty.
  ObservationVec merged;
  merge_observations_into({}, merged);
  EXPECT_TRUE(merged.empty());
  merge_observations_into({ObservationVec{}}, merged);
  EXPECT_TRUE(merged.empty());
  // A single stream merges to itself verbatim (the k-way merge's k=1
  // fast path must not reorder or drop).
  ObservationVec only{{5, 1, true}, {5, 2, false}, {17, 3, true}};
  merge_observations_into({only}, merged);
  ASSERT_EQ(merged.size(), only.size());
  for (std::size_t i = 0; i < only.size(); ++i) {
    EXPECT_EQ(merged[i].rel_time, only[i].rel_time);
    EXPECT_EQ(merged[i].addr, only[i].addr);
    EXPECT_EQ(merged[i].up, only[i].up);
  }
}

TEST(Merge, SameObserverListedTwiceKeepsStreamOrder) {
  // Degraded fleets can hand the merge two streams from the same
  // observer (e.g. a restarted prober re-delivering a window).  Equal
  // rel_times across the two copies must come out grouped by stream
  // index — the (rel_time, stream) total order, never interleaved
  // arbitrarily — so reconstruction sees a deterministic sequence.
  ObservationVec first{{100, 1, true}, {200, 1, false}};
  ObservationVec second{{100, 1, false}, {200, 1, true}};
  ObservationVec merged;
  merge_observations_into({first, second}, merged);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].rel_time, 100u);
  EXPECT_TRUE(merged[0].up);    // stream 0 first
  EXPECT_FALSE(merged[1].up);   // then stream 1
  EXPECT_EQ(merged[2].rel_time, 200u);
  EXPECT_FALSE(merged[2].up);
  EXPECT_TRUE(merged[3].up);
}

TEST(Merge, ManyStreamsAgainstReferenceStableSort) {
  // K-way merge vs a reference stable sort keyed the same way, over
  // enough streams to exercise the heap-heads fallback (> 16 streams)
  // and dense timestamp collisions.
  std::vector<ObservationVec> streams(20);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::uint32_t t = 0; t < 50; ++t) {
      // Every stream emits every 3rd tick, so most ticks collide across
      // several streams.
      if ((t + s) % 3 == 0) {
        streams[s].push_back(
            {t, static_cast<std::uint8_t>(s), (t + s) % 2 == 0});
      }
    }
  }
  struct Keyed {
    Observation o;
    std::size_t stream;
  };
  std::vector<Keyed> reference;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const auto& o : streams[s]) reference.push_back({o, s});
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Keyed& x, const Keyed& y) {
                     if (x.o.rel_time != y.o.rel_time) {
                       return x.o.rel_time < y.o.rel_time;
                     }
                     return x.stream < y.stream;
                   });
  ObservationVec merged;
  merge_observations_into(streams, merged);
  ASSERT_EQ(merged.size(), reference.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].rel_time, reference[i].o.rel_time) << "index " << i;
    EXPECT_EQ(merged[i].addr, reference[i].o.addr) << "index " << i;
    EXPECT_EQ(merged[i].up, reference[i].o.up) << "index " << i;
  }
}

TEST(Prober, FaultyObserverCorruptsResults) {
  const auto block = always_on_block(64);
  LossModel no_loss(LossModelConfig{0.0, 0.0, 0.0, 'w', 1, false});
  // Observer faulty over the whole window.
  ObserverSpec faulty{'c', "faulty", 0, 0, 1'000'000'000};
  const auto stream = probe_block(block, faulty, no_loss,
                                  ProbeWindow{time_of(2020, 2, 1),
                                              time_of(2020, 2, 1) + 200 * 660});
  std::size_t wrong = 0;
  for (const auto& o : stream) wrong += !o.up;  // truth is always-up
  EXPECT_GT(static_cast<double>(wrong) / stream.size(), 0.2);
  EXPECT_LT(static_cast<double>(wrong) / stream.size(), 0.5);
}

}  // namespace
}  // namespace diurnal::probe
