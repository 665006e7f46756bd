// Unit and metamorphic tests for the accuracy-validation harness
// (src/validate/): the ±4-day matcher's edge behavior, scorecard
// arithmetic on empty denominators, catalog determinism, the
// negative-control scenarios end-to-end, and the batch≡streaming and
// thread-count metamorphic gates the paper-facing numbers rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detect.h"
#include "core/metrics.h"
#include "sim/world.h"
#include "util/date.h"
#include "validate/baseline.h"
#include "validate/harness.h"
#include "validate/matcher.h"
#include "validate/scenario.h"
#include "validate/scorecard.h"

namespace diurnal {
namespace {

using analysis::ChangeDirection;
using validate::TruthClass;
using validate::TruthInstance;

constexpr std::int64_t kDay = util::kSecondsPerDay;

core::DetectedChange change(util::SimTime alarm, ChangeDirection dir,
                            double addresses = 10.0) {
  core::DetectedChange c;
  c.start = alarm - 6 * 3600;
  c.alarm = alarm;
  c.direction = dir;
  c.amplitude = 1.0;
  c.amplitude_addresses = addresses;
  return c;
}

// ---------------------------------------------------------------------------
// match_block: the paper's ±4-day rule, inclusive, one-to-one.
// ---------------------------------------------------------------------------

TEST(Matcher, WindowEdgeIsInclusive) {
  const std::vector<TruthInstance> truth = {
      {100 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset}};

  // Exactly +4 days matches...
  std::vector<core::DetectedChange> at_edge = {
      change(100 * kDay + core::kMatchWindow, ChangeDirection::kDown)};
  auto r = validate::match_block(truth, at_edge);
  ASSERT_EQ(r.matched.size(), 1u);
  EXPECT_EQ(r.matched[0].offset, core::kMatchWindow);

  // ...one second past does not.
  std::vector<core::DetectedChange> past_edge = {
      change(100 * kDay + core::kMatchWindow + 1, ChangeDirection::kDown)};
  r = validate::match_block(truth, past_edge);
  EXPECT_TRUE(r.matched.empty());
  EXPECT_EQ(r.unmatched_truth.size(), 1u);
  EXPECT_EQ(r.unmatched_changes.size(), 1u);

  // And exactly -4 days matches too.
  std::vector<core::DetectedChange> early = {
      change(100 * kDay - core::kMatchWindow, ChangeDirection::kDown)};
  r = validate::match_block(truth, early);
  ASSERT_EQ(r.matched.size(), 1u);
  EXPECT_EQ(r.matched[0].offset, -core::kMatchWindow);
}

TEST(Matcher, OneDetectionCannotSatisfyTwoTruths) {
  // Two planted instants two days apart, one alarm between them: the
  // alarm is within ±4d of both but must match only the nearer one.
  const std::vector<TruthInstance> truth = {
      {100 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset},
      {102 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset}};
  const std::vector<core::DetectedChange> one = {
      change(100 * kDay + 12 * 3600, ChangeDirection::kDown)};
  const auto r = validate::match_block(truth, one);
  ASSERT_EQ(r.matched.size(), 1u);
  EXPECT_EQ(r.matched[0].truth, 0u);  // the nearer instant
  EXPECT_EQ(r.unmatched_truth.size(), 1u);
  EXPECT_EQ(r.unmatched_truth[0], 1u);
}

TEST(Matcher, NearestWinsOverFirst) {
  // Two candidates inside the window: the nearer one is chosen even
  // though the farther one was detected first.
  const std::vector<TruthInstance> truth = {
      {100 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset}};
  const std::vector<core::DetectedChange> two = {
      change(97 * kDay, ChangeDirection::kDown),
      change(101 * kDay, ChangeDirection::kDown)};
  const auto r = validate::match_block(truth, two);
  ASSERT_EQ(r.matched.size(), 1u);
  EXPECT_EQ(r.matched[0].change, 1u);
  EXPECT_EQ(r.unmatched_changes.size(), 1u);
}

TEST(Matcher, DirectionMustAgree) {
  const std::vector<TruthInstance> truth = {
      {100 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset}};
  const std::vector<core::DetectedChange> up = {
      change(100 * kDay, ChangeDirection::kUp)};
  const auto r = validate::match_block(truth, up);
  EXPECT_TRUE(r.matched.empty());
  EXPECT_EQ(r.unmatched_truth.size(), 1u);
  EXPECT_EQ(r.unmatched_changes.size(), 1u);
}

TEST(Matcher, FilteredAndLowEvidenceChangesAreTalliedNotMatched) {
  const std::vector<TruthInstance> truth = {
      {100 * kDay, ChangeDirection::kDown, TruthClass::kWfhOnset}};
  auto discarded = change(100 * kDay, ChangeDirection::kDown);
  discarded.filtered_as_outage = true;
  auto weak = change(100 * kDay, ChangeDirection::kDown);
  weak.low_evidence = true;
  const std::vector<core::DetectedChange> changes = {discarded, weak};
  const auto r = validate::match_block(truth, changes);
  EXPECT_TRUE(r.matched.empty());
  EXPECT_EQ(r.outage_discards, 1);
  EXPECT_EQ(r.low_evidence_excluded, 1);
  EXPECT_EQ(r.unmatched_truth.size(), 1u);
  EXPECT_TRUE(r.unmatched_changes.empty());
}

TEST(Matcher, WarmupCutoffExcludesEarlyAlarms) {
  // An alarm before the cold-start cutoff is set aside, not a false
  // positive; at the cutoff it is a normal candidate again.
  const std::vector<TruthInstance> truth;
  const util::SimTime cutoff = 10 * kDay;
  const std::vector<core::DetectedChange> changes = {
      change(cutoff - 1, ChangeDirection::kDown),
      change(cutoff, ChangeDirection::kDown)};
  const auto r = validate::match_block(truth, changes, cutoff);
  EXPECT_EQ(r.warmup_excluded, 1);
  EXPECT_EQ(r.unmatched_changes.size(), 1u);
  EXPECT_EQ(r.unmatched_changes[0], 1u);
}

// ---------------------------------------------------------------------------
// Scorecard arithmetic: zero denominators are nullopt, never NaN.
// ---------------------------------------------------------------------------

TEST(Scorecard, EmptyCardHasUndefinedRates) {
  const validate::Scorecard card;
  EXPECT_FALSE(card.precision().has_value());
  EXPECT_FALSE(card.recall().has_value());
  EXPECT_FALSE(card.f1().has_value());
  EXPECT_FALSE(card.mean_abs_latency_days().has_value());
  EXPECT_FALSE(card.of(TruthClass::kWfhOnset).recall().has_value());
}

TEST(Scorecard, PerfectCardScoresOne) {
  validate::Scorecard card;
  auto& tally = card.of(TruthClass::kWfhOnset);
  tally.truth = 4;
  tally.matched = 4;
  tally.abs_latency_sum = 4 * kDay;
  ASSERT_TRUE(card.precision().has_value());
  EXPECT_DOUBLE_EQ(*card.precision(), 1.0);
  EXPECT_DOUBLE_EQ(*card.recall(), 1.0);
  EXPECT_DOUBLE_EQ(*card.f1(), 1.0);
  EXPECT_DOUBLE_EQ(*card.mean_abs_latency_days(), 1.0);
}

TEST(Scorecard, FalsePositivesOnlyGivesZeroPrecisionUndefinedRecall) {
  validate::Scorecard card;
  card.false_positive = 3;
  ASSERT_TRUE(card.precision().has_value());
  EXPECT_DOUBLE_EQ(*card.precision(), 0.0);
  EXPECT_FALSE(card.recall().has_value());
  EXPECT_FALSE(card.f1().has_value());
}

// ---------------------------------------------------------------------------
// Baseline serialization round-trips the whole card.
// ---------------------------------------------------------------------------

TEST(Baseline, JsonRoundTripIsExact) {
  validate::Baseline b;
  validate::Scorecard card;
  auto& tally = card.of(TruthClass::kHolidayDip);
  tally.truth = 7;
  tally.matched = 5;
  tally.missed = 2;
  tally.abs_latency_sum = 3 * kDay / 2;
  card.blocks_scored = 12;
  card.false_positive = 2;
  card.fp_outage_artifact = 1;
  card.outage_pairs_planted = 9;
  card.outage_discards = 4;
  card.low_evidence_excluded = 1;
  card.truth_outside_detection = 3;
  card.warmup_excluded = 2;
  b.scenarios.emplace_back("round_trip",
                           validate::make_record(card, 0xdeadbeefcafef00dULL));

  const auto parsed = validate::parse_baseline(validate::to_json(b));
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  const auto* rec = parsed.find("round_trip");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->digest, "deadbeefcafef00d");
  EXPECT_EQ(rec->score, card);
  EXPECT_TRUE(validate::compare_to_baseline(b, parsed, 1e-9).empty());
}

TEST(Baseline, LatencySumBeyondIntRoundTrips) {
  // abs_latency_seconds is an int64 sum: ~6,200 matched truths at the
  // ±4-day window already pass 2^31 seconds.
  validate::Baseline b;
  validate::Scorecard card;
  auto& tally = card.of(TruthClass::kWfhOnset);
  tally.truth = 9000;
  tally.matched = 9000;
  tally.abs_latency_sum = 3'000'000'000;
  b.scenarios.emplace_back("long", validate::make_record(card, 1));
  const auto parsed = validate::parse_baseline(validate::to_json(b));
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_EQ(parsed.scenarios[0].second.score, card);
}

// A to_json document whose one class tally reads `truth` verbatim.
std::string baseline_with_truth(const std::string& truth) {
  validate::Baseline b;
  validate::Scorecard card;
  card.of(TruthClass::kHolidayDip).truth = 12345;
  b.scenarios.emplace_back("s", validate::make_record(card, 1));
  std::string json = validate::to_json(b);
  // The last occurrence: the scenario's own "truth" total comes first.
  const std::string needle = "\"truth\": 12345";
  const auto at = json.rfind(needle);
  EXPECT_NE(at, std::string::npos);
  return json.replace(at, needle.size(), "\"truth\": " + truth);
}

TEST(Baseline, CountFieldsMustBeNonNegativeIntegersInRange) {
  EXPECT_NO_THROW(validate::parse_baseline(baseline_with_truth("7")));
  for (const std::string bad : {"1e300", "2.5", "-1", "3000000000", "1-2"}) {
    try {
      validate::parse_baseline(baseline_with_truth(bad));
      ADD_FAILURE() << bad << " accepted as a count";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (bad != "1-2") {
        EXPECT_NE(what.find("'truth'"), std::string::npos) << what;
      }
    }
  }
}

TEST(Baseline, DeepNestingAndOversizeInputThrowTyped) {
  // 2,000,000 nested objects once overflowed the recursive descent's
  // stack; the size bound and the depth bound each reject them now.
  std::string deep;
  for (int i = 0; i < 2'000'000; ++i) deep += "{\"a\":";
  EXPECT_THROW(validate::parse_baseline(deep), std::runtime_error);
  // Under the size bound, the depth bound alone.
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += "{\"a\":";
  nested += "1";
  for (int i = 0; i < 100; ++i) nested += "}";
  try {
    validate::parse_baseline(nested);
    ADD_FAILURE() << "100 nested objects accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos)
        << e.what();
  }
}

TEST(Baseline, MutatedBaselineParsesOrThrowsTyped) {
  // Seeded mutations of the checked-in baseline: byte flips,
  // truncations and duplicated brackets.  Each parse returns or throws
  // std::runtime_error — any other exception escapes and fails here,
  // and the sanitizer legs catch undefined behavior.
  std::ifstream in(DIURNAL_BASELINE_PATH);
  ASSERT_TRUE(in) << DIURNAL_BASELINE_PATH;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  ASSERT_NO_THROW(validate::parse_baseline(text));

  std::mt19937_64 rng(20240607);
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  int rejected = 0;
  constexpr int kTrials = 1500;
  for (int t = 0; t < kTrials; ++t) {
    std::string m = text;
    switch (t % 3) {
      case 0:  // flip one to four bytes
        for (std::size_t k = 0, n = 1 + pick(4); k < n; ++k) {
          m[pick(m.size())] = static_cast<char>(pick(256));
        }
        break;
      case 1:  // truncate
        m.resize(pick(m.size()));
        break;
      default: {  // duplicate a bracket, or insert one anywhere
        const char bracket = "{}"[pick(2)];
        const auto at = m.find(bracket, pick(m.size()));
        m.insert(at == std::string::npos ? pick(m.size()) : at,
                 std::string(1 + pick(64), bracket));
      }
    }
    try {
      validate::parse_baseline(m);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, kTrials / 2);
}

TEST(Baseline, ComparatorFlagsEveryCounterDrift) {
  validate::Baseline want;
  validate::Scorecard card;
  card.blocks_scored = 5;
  want.scenarios.emplace_back("s", validate::make_record(card, 1));

  validate::Baseline got = want;
  got.scenarios[0].second.score.warmup_excluded = 1;
  const auto mismatches = validate::compare_to_baseline(want, got, 1e-9);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].field, "warmup_excluded");
}

// ---------------------------------------------------------------------------
// Catalog invariants.
// ---------------------------------------------------------------------------

TEST(Catalog, HasTheContractedScenarios) {
  const auto& cat = validate::catalog();
  EXPECT_GE(cat.size(), 15u);
  for (const char* name :
       {"clean_diurnal", "wfh_step", "holiday_dip", "curfew_geo",
        "paired_outage", "wfh_dropout", "wfh_bursts", "wfh_meltdown",
        "quiet_calendar", "dst_transition", "wfh_ramp", "overlap_geo",
        "cgnat_fade", "multiyear_seasonal", "golden_mix"}) {
    EXPECT_NE(validate::find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(validate::find_scenario("no_such_scenario"), nullptr);
}

TEST(Catalog, FaultedVariantsRunAfterTheirCleanCounterparts) {
  const auto& cat = validate::catalog();
  for (std::size_t i = 0; i < cat.size(); ++i) {
    if (cat[i].clean_counterpart.empty()) continue;
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (cat[j].name == cat[i].clean_counterpart) seen = true;
    }
    EXPECT_TRUE(seen) << cat[i].name << " references "
                      << cat[i].clean_counterpart;
  }
}

TEST(Catalog, PlantedTruthIsDeterministic) {
  // Same scenario, two independently built worlds: identical truth on
  // every block (the golden baseline depends on this).
  const auto* s = validate::find_scenario("wfh_step");
  ASSERT_NE(s, nullptr);
  const sim::World a(s->world);
  const sim::World b(s->world);
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  const auto window = core::dataset(s->dataset).window();
  std::size_t planted = 0;
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    const auto ta = validate::planted_truth(a.blocks()[i], window);
    const auto tb = validate::planted_truth(b.blocks()[i], window);
    ASSERT_EQ(ta.size(), tb.size()) << "block " << i;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k].at, tb[k].at);
      EXPECT_EQ(ta[k].direction, tb[k].direction);
      EXPECT_EQ(ta[k].cls, tb[k].cls);
    }
    planted += ta.size();
  }
  EXPECT_GT(planted, 0u);  // the WFH step actually plants truth
}

// A WFH order that lands after CGNAT absorbed a block finds nobody left
// to send home (sim::humans_present): neither the Table 5 sample scorer
// nor planted_truth may count its onset as truth.
TEST(TruthRule, WfhAfterCgnatAbsorptionIsNoTruth) {
  const auto* s = validate::find_scenario("cgnat_fade");
  ASSERT_NE(s, nullptr);
  sim::WorldConfig config = s->world;
  sim::Event wfh;
  wfh.kind = sim::EventKind::kWorkFromHome;
  wfh.scope.country_code = "US";
  wfh.start = util::time_of(2020, 3, 15);  // the US date Table 5 scores
  wfh.end = config.horizon_end;
  wfh.adoption = 1.0;
  config.calendar.push_back(wfh);
  const sim::World world(config);

  const auto& blocks = world.blocks();
  std::size_t pick = 0;
  while (pick < blocks.size()) {
    const auto& b = blocks[pick];
    // A downward WFH onset: home blocks answer WFH with more activity.
    const auto onset =
        std::find_if(b.suppressions.begin(), b.suppressions.end(),
                     [](const sim::Suppression& sup) {
                       return sup.kind == sim::EventKind::kWorkFromHome;
                     });
    if (b.category != sim::BlockCategory::kHomeDynamic &&
        onset != b.suppressions.end() &&
        std::abs(onset->start - wfh.start) <= 4 * kDay && b.cgnat_at >= 0 &&
        b.cgnat_at < onset->start && b.vacate_at < 0) {
      break;
    }
    ++pick;
  }
  ASSERT_LT(pick, blocks.size()) << "no block absorbed before its WFH onset";
  const auto& block = blocks[pick];

  core::FleetResult fleet;
  fleet.outcomes.resize(blocks.size());
  fleet.outcomes[pick].cls.change_sensitive = true;  // and no changes
  const auto v = core::validate_sample(world, fleet, core::ValidationConfig{});
  ASSERT_EQ(v.blocks.size(), 1u);
  EXPECT_EQ(v.blocks[0].verdict, core::BlockVerdict::kNoCusum);
  EXPECT_EQ(v.false_negative, 0);

  const probe::ProbeWindow horizon{config.horizon_start, config.horizon_end};
  for (const auto& t : validate::planted_truth(block, horizon)) {
    EXPECT_NE(t.cls, TruthClass::kWfhOnset);
  }
}

// The Table 5 scorer's +-4-day edge, like the matcher's: a counted down
// change exactly core::kMatchWindow from the block's truth onset scores
// a true positive, one second farther a false negative.  The change sits
// on the side away from the news date, so only the truth can match it.
TEST(SampleValidation, WindowEdgeIsInclusive) {
  const auto* s = validate::find_scenario("quiet_calendar");
  ASSERT_NE(s, nullptr);
  sim::WorldConfig config = s->world;
  const util::SimTime news = util::time_of(2020, 3, 15);  // the US date
  sim::Event wfh;
  wfh.kind = sim::EventKind::kWorkFromHome;
  wfh.scope.country_code = "US";
  wfh.start = news + kDay;
  wfh.end = config.horizon_end;
  wfh.adoption = 1.0;
  config.calendar.push_back(wfh);
  const sim::World world(config);

  // A block whose scored onset falls after the news date.
  const auto& blocks = world.blocks();
  std::size_t pick = blocks.size();
  util::SimTime onset = 0;
  for (std::size_t i = 0; i < blocks.size() && pick == blocks.size(); ++i) {
    if (blocks[i].category == sim::BlockCategory::kHomeDynamic) continue;
    for (const auto& sup : blocks[i].suppressions) {
      if (sup.kind == sim::EventKind::kWorkFromHome && sup.start > news &&
          sup.start - news <= core::kMatchWindow &&
          sim::occupied_at(blocks[i], sup.start)) {
        pick = i;
        onset = sup.start;
      }
    }
  }
  ASSERT_LT(pick, blocks.size()) << "no block adopted after the news date";

  core::FleetResult fleet;
  fleet.outcomes.resize(blocks.size());
  fleet.outcomes[pick].cls.change_sensitive = true;  // the whole sample
  const auto verdict = [&](util::SimTime alarm) {
    fleet.outcomes[pick].changes = {change(alarm, ChangeDirection::kDown)};
    const auto v = core::validate_sample(world, fleet, {});
    EXPECT_EQ(v.blocks.size(), 1u);
    return v.blocks.empty() ? core::BlockVerdict::kNoCusum
                            : v.blocks[0].verdict;
  };
  EXPECT_EQ(verdict(onset + core::kMatchWindow),
            core::BlockVerdict::kTruePositive);
  EXPECT_EQ(verdict(onset + core::kMatchWindow + 1),
            core::BlockVerdict::kFalseNegative);
}

// ---------------------------------------------------------------------------
// End-to-end: negative controls and the metamorphic gates.  These run
// the full pipeline on small scenario worlds (a few seconds total).
// ---------------------------------------------------------------------------

TEST(ValidateEndToEnd, QuietCalendarStaysSilentOnBothDrives) {
  const auto* s = validate::find_scenario("quiet_calendar");
  ASSERT_NE(s, nullptr);
  const sim::World world(s->world);
  for (const auto drive :
       {validate::Drive::kBatch, validate::Drive::kStreaming}) {
    const auto run = validate::run_scenario(*s, world, drive, 2);
    const char* name = drive == validate::Drive::kBatch ? "batch" : "streaming";
    EXPECT_EQ(run.score.truth_total(), 0) << name;
    EXPECT_EQ(run.score.true_positive(), 0) << name;
    EXPECT_EQ(run.score.false_positive, 0) << name;
    EXPECT_EQ(run.score.low_evidence_excluded, 0) << name;
    EXPECT_TRUE(validate::check_expectations(*s, run).empty()) << name;
  }
}

TEST(ValidateEndToEnd, DstTransitionStaysSilentOnBothDrives) {
  // The 2020-03-08 US spring-forward sits inside the probed quarter;
  // nothing is planted, so the negative control must stay silent on
  // both the batch and the streaming drive.
  const auto* s = validate::find_scenario("dst_transition");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->expect_zero_confirmed);
  const sim::World world(s->world);
  for (const auto drive :
       {validate::Drive::kBatch, validate::Drive::kStreaming}) {
    const auto run = validate::run_scenario(*s, world, drive, 2);
    const char* name = drive == validate::Drive::kBatch ? "batch" : "streaming";
    EXPECT_EQ(run.score.truth_total(), 0) << name;
    EXPECT_EQ(run.score.true_positive(), 0) << name;
    EXPECT_EQ(run.score.false_positive, 0) << name;
    EXPECT_TRUE(validate::check_expectations(*s, run).empty()) << name;
  }
}

TEST(ValidateEndToEnd, CgnatFadeMasksConversionsWithoutFalseAlarms) {
  // CGNAT absorption strips diurnality mid-window, so the per-segment
  // strictness gate sheds the converting blocks before detection: the
  // planted conversions must all land outside detection, and no block
  // that survives classification may raise a confirmed change.
  const auto* s = validate::find_scenario("cgnat_fade");
  ASSERT_NE(s, nullptr);
  const auto run = validate::run_scenario(*s, sim::World(s->world),
                                          validate::Drive::kBatch, 2);
  EXPECT_GE(run.score.truth_outside_detection, s->truth_outside_floor);
  EXPECT_EQ(run.score.truth_total(), 0);
  EXPECT_EQ(run.score.true_positive(), 0);
  EXPECT_EQ(run.score.false_positive, 0);
  EXPECT_TRUE(validate::check_expectations(*s, run).empty());
}

TEST(ValidateEndToEnd, CleanDiurnalNegativeControlPasses) {
  const auto* s = validate::find_scenario("clean_diurnal");
  ASSERT_NE(s, nullptr);
  const auto run = validate::run_scenario(*s, sim::World(s->world),
                                          validate::Drive::kBatch, 2);
  EXPECT_TRUE(validate::check_expectations(*s, run).empty());
  EXPECT_EQ(run.score.false_positive, 0);
}

TEST(ValidateEndToEnd, BatchAndStreamingScorecardsAgree) {
  const auto* s = validate::find_scenario("wfh_step");
  ASSERT_NE(s, nullptr);
  const sim::World world(s->world);
  const auto batch =
      validate::run_scenario(*s, world, validate::Drive::kBatch, 2);
  const auto streamed =
      validate::run_scenario(*s, world, validate::Drive::kStreaming, 2);
  EXPECT_EQ(batch.digest, streamed.digest);
  EXPECT_TRUE(batch.score == streamed.score);
}

TEST(ValidateEndToEnd, ScorecardIsThreadCountInvariant) {
  const auto* s = validate::find_scenario("wfh_step");
  ASSERT_NE(s, nullptr);
  const sim::World world(s->world);
  const auto one = validate::run_scenario(*s, world, validate::Drive::kBatch, 1);
  const auto many =
      validate::run_scenario(*s, world, validate::Drive::kBatch, 8);
  EXPECT_EQ(one.digest, many.digest);
  EXPECT_TRUE(one.score == many.score);
}

TEST(ValidateEndToEnd, FaultInvariantsHoldForDropout) {
  const auto* clean = validate::find_scenario("wfh_step");
  const auto* faulted = validate::find_scenario("wfh_dropout");
  ASSERT_NE(clean, nullptr);
  ASSERT_NE(faulted, nullptr);
  const auto clean_run = validate::run_scenario(
      *clean, sim::World(clean->world), validate::Drive::kBatch, 2);
  const auto faulted_run = validate::run_scenario(
      *faulted, sim::World(faulted->world), validate::Drive::kBatch, 2);
  EXPECT_TRUE(
      validate::check_fault_invariants(*faulted, faulted_run, clean_run)
          .empty());
  // The faulted run is a genuinely different pipeline execution.
  EXPECT_NE(faulted_run.digest, clean_run.digest);
}

}  // namespace
}  // namespace diurnal
