// Tests for the observer fault-injection layer and the degraded-mode
// pipeline: plan construction, stream injection, coverage accounting,
// low-confidence annotation, and the fleet-level guarantees (empty plan
// is a no-op; seeded plans are deterministic across thread counts; a
// single-observer dropout is never misread as a WFH onset).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/datasets.h"
#include "core/pipeline.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/inject.h"
#include "oracle.h"
#include "recon/block_recon.h"
#include "recon/reconstruct.h"
#include "sim/world.h"

namespace diurnal::fault {
namespace {

using probe::Observation;
using probe::ObservationVec;
using probe::ProbeWindow;
using util::kRoundSeconds;
using util::kSecondsPerDay;
using util::kSecondsPerHour;
using util::SimTime;
using util::time_of;

// One observation per round over the window, alternating addresses,
// all positive.
ObservationVec dense_stream(ProbeWindow w) {
  ObservationVec v;
  const auto span = static_cast<std::uint32_t>(w.end - w.start);
  for (std::uint32_t rel = 0; rel < span;
       rel += static_cast<std::uint32_t>(kRoundSeconds)) {
    v.push_back(Observation{rel, static_cast<std::uint8_t>(rel / 660 % 4),
                            true});
  }
  return v;
}

TEST(FaultPlan, ScenarioRegistry) {
  const auto& names = scenario_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "none");
  const ProbeWindow w{0, 28 * kSecondsPerDay};
  for (const auto& n : names) {
    const auto plan = scenario(n, w);
    EXPECT_EQ(plan.empty(), n == "none") << n;
  }
  EXPECT_THROW(scenario("nope", w), std::invalid_argument);
}

TEST(FaultPlan, SingleObserverDropout) {
  FaultPlan plan;
  plan.outages.push_back({'e', OutageKind::kHardDown, 100, 200});
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].observer, 'e');
  EXPECT_EQ(plan.outages[0].kind, OutageKind::kHardDown);
  EXPECT_TRUE(observer_dark_at(plan, 'e', 150));
  EXPECT_FALSE(observer_dark_at(plan, 'e', 99));
  EXPECT_FALSE(observer_dark_at(plan, 'e', 200));
  EXPECT_FALSE(observer_dark_at(plan, 'w', 150));
}

TEST(Inject, EmptyPlanIsNoOp) {
  const ProbeWindow w{0, kSecondsPerDay};
  auto stream = dense_stream(w);
  const auto reference = stream;
  FaultCarry carry;
  const auto st = apply_faults_chunk(FaultPlan{}, 'e', w, stream, 0, carry);
  EXPECT_EQ(st.input, reference.size());
  EXPECT_FALSE(st.touched());
  ASSERT_EQ(stream.size(), reference.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].rel_time, reference[i].rel_time);
    EXPECT_EQ(stream[i].addr, reference[i].addr);
    EXPECT_EQ(stream[i].up, reference[i].up);
  }
}

TEST(Inject, HardDownDropsOnlyDarkWindow) {
  const ProbeWindow w{1000, 1000 + kSecondsPerDay};
  const SimTime dark_start = w.start + 6 * kSecondsPerHour;
  const SimTime dark_end = w.start + 10 * kSecondsPerHour;
  FaultPlan plan;
  plan.outages.push_back({'e', OutageKind::kHardDown, dark_start, dark_end});

  auto stream = dense_stream(w);
  const std::size_t before = stream.size();
  FaultCarry carry;
  const auto st = apply_faults_chunk(plan, 'e', w, stream, 0, carry);
  EXPECT_GT(st.dropped, 0u);
  EXPECT_EQ(stream.size() + st.dropped, before);
  for (const auto& o : stream) {
    const SimTime t = w.start + o.rel_time;
    EXPECT_TRUE(t < dark_start || t >= dark_end);
  }

  // A different observer is untouched.
  auto other = dense_stream(w);
  FaultCarry other_carry;
  EXPECT_FALSE(
      apply_faults_chunk(plan, 'w', w, other, 0, other_carry).touched());
  EXPECT_EQ(other.size(), before);

  // The wildcard matches every observer.
  plan.outages[0].observer = kAllObservers;
  auto any = dense_stream(w);
  FaultCarry any_carry;
  EXPECT_GT(apply_faults_chunk(plan, 'w', w, any, 0, any_carry).dropped, 0u);
}

TEST(Inject, FlappingIsIrregularAndDeterministic) {
  const ProbeWindow w{0, 7 * kSecondsPerDay};
  FaultPlan plan;
  OutageSpec o;
  o.observer = 'j';
  o.kind = OutageKind::kFlapping;
  o.start = w.start;
  o.end = w.end;
  o.flap_down_fraction = 0.5;
  plan.outages.push_back(o);

  auto a = dense_stream(w);
  auto b = dense_stream(w);
  FaultCarry carry_a, carry_b;
  const auto st_a = apply_faults_chunk(plan, 'j', w, a, 0, carry_a);
  const auto st_b = apply_faults_chunk(plan, 'j', w, b, 0, carry_b);
  // Roughly half the slots are dark (binomial over ~84 slots).
  EXPECT_GT(st_a.dropped, st_a.input / 5);
  EXPECT_LT(st_a.dropped, st_a.input * 4 / 5);
  // Same plan, same stream -> bit-identical outcome.
  EXPECT_EQ(st_a.dropped, st_b.dropped);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rel_time, b[i].rel_time);
  }
  // A different plan seed flaps a different pattern.
  FaultPlan reseeded = plan;
  reseeded.seed ^= 0x5EEDULL;
  auto c = dense_stream(w);
  FaultCarry carry_c;
  apply_faults_chunk(reseeded, 'j', w, c, 0, carry_c);
  EXPECT_NE(a.size(), c.size());
}

TEST(Inject, ScheduledRebootIsPeriodic) {
  const ProbeWindow w{0, 3 * kSecondsPerDay};
  FaultPlan plan;
  OutageSpec o;
  o.observer = kAllObservers;
  o.kind = OutageKind::kScheduledReboot;
  o.start = 0;
  o.end = w.end;
  o.reboot_interval = kSecondsPerDay;
  o.reboot_duration = 30 * 60;
  plan.outages.push_back(o);

  auto stream = dense_stream(w);
  FaultCarry carry;
  apply_faults_chunk(plan, 'n', w, stream, 0, carry);
  for (const auto& obs : stream) {
    EXPECT_GE(static_cast<SimTime>(obs.rel_time) % kSecondsPerDay, 30 * 60);
  }
  // Exactly the first ~30 minutes of each day vanish: 3 days x 3 rounds
  // per 30-minute reboot (rounds at 0, 660, 1320 fall inside).
  EXPECT_TRUE(observer_dark_at(plan, 'n', kSecondsPerDay));
  EXPECT_FALSE(observer_dark_at(plan, 'n', kSecondsPerDay + 31 * 60));
}

TEST(Inject, SkewShiftsAndDriftStaysMonotone) {
  const ProbeWindow w{0, kSecondsPerDay};
  FaultPlan plan;
  plan.skews.push_back(ClockSkewSpec{'n', 90, 0.0});

  auto stream = dense_stream(w);
  const auto original = stream;
  FaultCarry carry;
  const auto st = apply_faults_chunk(plan, 'n', w, stream, 0, carry);
  EXPECT_EQ(st.retimed, stream.size());
  // +90s shift; the last round (rel 86400-660+90 < 86400) survives, so
  // nothing is dropped and every timestamp moves by exactly the skew.
  ASSERT_EQ(stream.size(), original.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].rel_time, original[i].rel_time + 90);
  }

  // Drift: large positive drift pushes the tail out of the window but
  // keeps the survivors ordered.
  FaultPlan drift;
  drift.skews.push_back(ClockSkewSpec{'n', 0, 50'000.0});  // +5%
  auto drifted = dense_stream(w);
  FaultCarry drift_carry;
  const auto st2 = apply_faults_chunk(drift, 'n', w, drifted, 0, drift_carry);
  EXPECT_GT(st2.dropped, 0u);
  EXPECT_TRUE(std::is_sorted(
      drifted.begin(), drifted.end(),
      [](const Observation& a, const Observation& b) {
        return a.rel_time < b.rel_time;
      }));
}

TEST(Inject, BurstLossFlipsOnlyPositives) {
  const ProbeWindow w{0, kSecondsPerDay};
  FaultPlan plan;
  BurstLossSpec b;
  b.rate = 1.0;
  b.mean_interval = 2 * kSecondsPerHour;
  b.mean_duration = 30 * 60;
  plan.bursts.push_back(b);

  auto stream = dense_stream(w);
  const std::size_t before = stream.size();
  FaultCarry carry;
  const auto st = apply_faults_chunk(plan, 'w', w, stream, 0, carry);
  EXPECT_GT(st.corrupted, 0u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(stream.size(), before);  // corruption never deletes
  std::size_t down = 0;
  for (const auto& o : stream) down += o.up ? 0 : 1;
  EXPECT_EQ(down, st.corrupted);
  // Every corrupted observation sits inside an active burst.
  for (const auto& o : stream) {
    if (!o.up) {
      EXPECT_TRUE(burst_active(plan.seed, 0, b,
                               w.start + static_cast<SimTime>(o.rel_time)));
    }
  }
}

TEST(Inject, TruncationKeepsFirstProbeOfRound) {
  const ProbeWindow w{0, kSecondsPerDay};
  // Three observations per round.
  ObservationVec stream;
  for (std::uint32_t rel = 0; rel < kSecondsPerDay;
       rel += static_cast<std::uint32_t>(kRoundSeconds)) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      stream.push_back(
          Observation{rel + j * 10, static_cast<std::uint8_t>(j), true});
    }
  }
  FaultPlan plan;
  plan.truncations.push_back(TruncationSpec{kAllObservers, 1.0, 0, 0});
  const std::size_t rounds = stream.size() / 3;
  FaultCarry carry;
  apply_faults_chunk(plan, 'g', w, stream, 0, carry);
  // prob=1: every round is cut to its first probe.
  ASSERT_EQ(stream.size(), rounds);
  for (const auto& o : stream) {
    EXPECT_EQ(o.addr, 0);
    EXPECT_EQ(static_cast<SimTime>(o.rel_time) % kRoundSeconds, 0);
  }
}

// --------------------------------------------------------------------
// Reconstruction coverage tracking.
// --------------------------------------------------------------------

TEST(Coverage, GapsAndEvidenceFraction) {
  // Observations every hour for day 1, silence for day 2, back on day 3.
  ObservationVec obs;
  auto add_day = [&](SimTime day) {
    for (SimTime h = 0; h < 24; ++h) {
      obs.push_back(Observation{
          static_cast<std::uint32_t>(day * kSecondsPerDay + h * kSecondsPerHour),
          0, true});
    }
  };
  add_day(0);
  add_day(2);
  const ProbeWindow w{0, 3 * kSecondsPerDay};
  const auto r = oracle::reconstruct(obs, 4, w, {});
  // The silent day exceeds the 6h staleness horizon.
  EXPECT_LE(r.evidence_fraction, 0.75);
  EXPECT_GT(r.evidence_fraction, 0.5);
  EXPECT_GE(r.max_gap_seconds, static_cast<double>(kSecondsPerDay));
  ASSERT_FALSE(r.gaps.empty());
  EXPECT_LE(r.gaps[0].start, kSecondsPerDay);
  EXPECT_GE(r.gaps[0].end, 2 * kSecondsPerDay);
}

TEST(Coverage, HealthyStreamHasFullEvidence) {
  const ProbeWindow w{0, 2 * kSecondsPerDay};
  const auto r = oracle::reconstruct(dense_stream(w), 4, w, {});
  EXPECT_GT(r.evidence_fraction, 0.95);
  EXPECT_TRUE(r.gaps.empty());
  EXPECT_LT(r.max_gap_seconds, 2.0 * kSecondsPerHour);
}

TEST(Degradation, SummarizeBlockCountsLiveAndPartial) {
  const ProbeWindow w{0, 28 * kSecondsPerDay};
  std::vector<ObserverStreamInfo> streams(3);
  streams[0] = {'e', 1000, 0,
                static_cast<std::uint32_t>(28 * kSecondsPerDay - 700),
                StreamFaultStats{}};
  // Started 5 days late -> partial.
  streams[1] = {'j', 800, static_cast<std::uint32_t>(5 * kSecondsPerDay),
                static_cast<std::uint32_t>(28 * kSecondsPerDay - 700),
                StreamFaultStats{}};
  // Vanished: delivered nothing.
  streams[2] = {'n', 0, 0, 0, StreamFaultStats{}};
  streams[2].faults.dropped = 1000;

  const auto d = summarize_block(streams, 3, w, 0.8, 3600.0, 0.5);
  EXPECT_EQ(d.configured_observers, 3);
  EXPECT_EQ(d.live_observers, 2);
  EXPECT_EQ(d.partial_observers, 1);
  EXPECT_EQ(d.dropped_observations, 1000u);
  EXPECT_FALSE(d.low_confidence);
  EXPECT_TRUE(d.degraded());

  const auto low = summarize_block(streams, 3, w, 0.3, 3600.0, 0.5);
  EXPECT_TRUE(low.low_confidence);
}

// --------------------------------------------------------------------
// Degraded pipeline: merge tolerance and annotation.
// --------------------------------------------------------------------

sim::World& fault_world() {
  static sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 250;
    c.seed = 11;
    return c;
  }());
  return world;
}

core::FleetConfig month_config() {
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 1;
  return fc;
}

bool same_outcomes(const core::FleetResult& a, const core::FleetResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    if (x.cls.responsive != y.cls.responsive ||
        x.cls.change_sensitive != y.cls.change_sensitive ||
        x.cls.low_confidence != y.cls.low_confidence ||
        x.changes.size() != y.changes.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.changes.size(); ++k) {
      if (x.changes[k].start != y.changes[k].start ||
          x.changes[k].alarm != y.changes[k].alarm ||
          x.changes[k].amplitude != y.changes[k].amplitude ||
          x.changes[k].low_evidence != y.changes[k].low_evidence) {
        return false;
      }
    }
  }
  return true;
}

TEST(DegradedFleet, EmptyPlanReportsHealthy) {
  const auto fleet = core::run_fleet(fault_world(), month_config());
  const auto& d = fleet.degradation;
  EXPECT_GT(d.probed_blocks, 0);
  EXPECT_EQ(d.degraded_blocks, 0);
  EXPECT_EQ(d.low_confidence_blocks, 0);
  EXPECT_EQ(d.blocks_missing_observers, 0);
  EXPECT_GT(d.mean_evidence_fraction, 0.95);
  EXPECT_EQ(fleet.funnel.low_confidence, 0);
  for (const auto& out : fleet.outcomes) {
    for (const auto& ch : out.changes) EXPECT_FALSE(ch.low_evidence);
  }
}

TEST(DegradedFleet, SeededPlanDeterministicAcrossThreads) {
  auto fc = month_config();
  fc.faults = fault::scenario("meltdown", fc.dataset.window());
  fc.threads = 1;
  const auto one = core::run_fleet(fault_world(), fc);
  fc.threads = 4;
  const auto four = core::run_fleet(fault_world(), fc);
  EXPECT_TRUE(same_outcomes(one, four));
  EXPECT_EQ(one.degradation.degraded_blocks, four.degradation.degraded_blocks);
  EXPECT_EQ(one.degradation.low_confidence_blocks,
            four.degradation.low_confidence_blocks);
}

TEST(DegradedFleet, MergeToleratesDroppedObserver) {
  // Observer e dark for the middle of the month: with three healthy
  // observers still probing every round, coverage barely moves (the
  // section 2.7 merge is the redundancy) and no verdict loses confidence.
  auto fc = month_config();
  const auto w = fc.dataset.window();
  fc.faults.outages.push_back({'e', OutageKind::kHardDown,
                               w.start + 7 * kSecondsPerDay,
                               w.start + 21 * kSecondsPerDay});
  const auto fleet = core::run_fleet(fault_world(), fc);
  EXPECT_GT(fleet.degradation.degraded_blocks, 0);
  EXPECT_EQ(fleet.degradation.low_confidence_blocks, 0);
  EXPECT_GT(fleet.degradation.mean_evidence_fraction, 0.95);
  EXPECT_GT(fleet.funnel.responsive, 0);
}

TEST(DegradedFleet, WholeFleetOutageLosesConfidenceNotCorrectness) {
  // Every observer dark for 18 of 28 days: evidence collapses and the
  // pipeline must say so on every responsive block.
  auto fc = month_config();
  const auto w = fc.dataset.window();
  fc.faults.outages.push_back({kAllObservers, OutageKind::kHardDown,
                               w.start + 7 * kSecondsPerDay,
                               w.start + 25 * kSecondsPerDay});
  const auto fleet = core::run_fleet(fault_world(), fc);
  EXPECT_GT(fleet.degradation.low_confidence_blocks, 0);
  EXPECT_LT(fleet.degradation.mean_evidence_fraction, 0.5);
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    const auto& out = fleet.outcomes[i];
    if (!out.cls.responsive) continue;
    EXPECT_TRUE(out.cls.low_confidence);
    EXPECT_TRUE(fleet.degradation.blocks[i].low_confidence);
  }
  EXPECT_EQ(fleet.funnel.low_confidence,
            fleet.degradation.low_confidence_blocks);
}

// The acceptance property: a single-observer fleet losing its only
// observer mid-window must never report the outage as a trustworthy
// activity change.  The down/up pair a dropout paints into the
// reconstruction either gets filtered as an outage pair, or — when it
// survives the filters — carries the low_evidence annotation, so WFH
// validation (which skips low-evidence changes) cannot mistake it for
// an onset.
TEST(DegradedFleet, DropoutNeverMisreadAsWfhOnset) {
  sim::WorldConfig wc;
  wc.num_blocks = 150;
  wc.seed = 23;
  wc.quiet_calendar = true;  // no real events: any change is an artifact
  wc.include_special_blocks = false;
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-w");  // one observer only
  fc.threads = 2;
  const auto w = fc.dataset.window();
  const SimTime dark_start = w.start + 10 * kSecondsPerDay;
  const SimTime dark_end = w.start + 17 * kSecondsPerDay;
  fc.faults.outages.push_back(
      {'w', OutageKind::kHardDown, dark_start, dark_end});

  const auto fleet = core::run_fleet(world, fc);
  // The fault must actually bite: the only observer went dark for a
  // quarter of the window, so gaps exist fleet-wide.
  EXPECT_GT(fleet.degradation.degraded_blocks, 0);
  EXPECT_LT(fleet.degradation.mean_evidence_fraction, 0.85);

  int counted_near_dropout = 0;
  for (const auto& out : fleet.outcomes) {
    for (const auto& ch : out.changes) {
      const bool overlaps_dark =
          ch.start - kSecondsPerDay < dark_end &&
          ch.end + kSecondsPerDay > dark_start;
      if (!overlaps_dark) continue;
      ++counted_near_dropout;
      if (ch.counted()) {
        EXPECT_TRUE(ch.low_evidence)
            << "dropout artifact reported as trustworthy change at "
            << util::to_string_time(ch.start);
      }
    }
  }
  // Not vacuous: the dropout does paint excursions into some blocks.
  EXPECT_GT(counted_near_dropout, 0);
}

}  // namespace
}  // namespace diurnal::fault
