// Tests for the core pipeline pieces: classifier, detector, datasets,
// aggregation, and validation metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/aggregate.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "core/detect.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "sim/world.h"
#include "util/rng.h"

namespace diurnal::core {
namespace {

using util::SimTime;
using util::time_of;

// Builds a ReconResult around a synthetic hourly count series.
recon::ReconResult recon_of(std::vector<double> counts, SimTime start = 0) {
  recon::ReconResult r;
  r.counts = util::TimeSeries(start, util::kSecondsPerHour, std::move(counts));
  r.responsive = r.counts.max() > 0;
  r.eb_count = 64;
  r.max_active = r.counts.max();
  return r;
}

// The engine's per-block verdicts (classification, then detection of a
// change-sensitive block) on a synthetic reconstruction.
BlockClassification classify(const recon::ReconResult& r) {
  return analyze_block(r).cls;
}

// The production detector, one lane, on an hourly series from t = 0.
std::vector<DetectedChange> detect(std::span<const double> counts,
                                   const DetectorOptions& opt = {}) {
  std::vector<DetectedChange> changes;
  BatchDetector det(opt, 1);
  det.enqueue(counts, 0, util::kSecondsPerHour, &changes);
  det.flush();
  return changes;
}

// The changes attributed to human activity.
std::vector<DetectedChange> counted(std::vector<DetectedChange> changes) {
  std::erase_if(changes, [](const DetectedChange& c) { return !c.counted(); });
  return changes;
}

// Hourly office-like series: `level` actives 9-17h on workdays.
std::vector<double> office_series(int days, double level,
                                  double after_level = -1.0,
                                  int change_day = -1) {
  std::vector<double> v;
  for (int d = 0; d < days; ++d) {
    const int wd = (d + 2) % 7;  // epoch is a Tuesday
    const bool work = wd >= 1 && wd <= 5;
    const double lvl = (change_day >= 0 && d >= change_day)
                           ? after_level
                           : level;
    for (int h = 0; h < 24; ++h) {
      v.push_back(work && h >= 9 && h < 17 ? lvl : 1.0);
    }
  }
  return v;
}

TEST(Classify, OfficeBlockIsChangeSensitive) {
  const auto cls = classify(recon_of(office_series(28, 15.0)));
  EXPECT_TRUE(cls.responsive);
  EXPECT_TRUE(cls.diurnal);
  EXPECT_TRUE(cls.wide_swing);
  EXPECT_TRUE(cls.change_sensitive);
}

TEST(Classify, FlatServerIsNotChangeSensitive) {
  const auto cls = classify(recon_of(std::vector<double>(28 * 24, 40.0)));
  EXPECT_TRUE(cls.responsive);
  EXPECT_FALSE(cls.diurnal);
  EXPECT_FALSE(cls.wide_swing);
  EXPECT_FALSE(cls.change_sensitive);
}

TEST(Classify, DiurnalButNarrowIsNotChangeSensitive) {
  const auto cls = classify(recon_of(office_series(28, 3.0)));
  EXPECT_TRUE(cls.diurnal);
  EXPECT_FALSE(cls.wide_swing);
  EXPECT_FALSE(cls.change_sensitive);
}

TEST(Classify, NoisyWideButNotDiurnal) {
  util::Xoshiro256 rng(3);
  std::vector<double> v(28 * 24);
  for (auto& x : v) x = std::max(0.0, rng.normal(20, 6));
  const auto cls = classify(recon_of(std::move(v)));
  EXPECT_FALSE(cls.diurnal);
  EXPECT_TRUE(cls.wide_swing);
  EXPECT_FALSE(cls.change_sensitive);
}

TEST(Classify, UnresponsiveShortCircuits) {
  recon::ReconResult r;
  r.counts = util::TimeSeries(0, 3600, std::vector<double>(28 * 24, 0.0));
  r.responsive = false;
  const auto cls = classify(r);
  EXPECT_FALSE(cls.responsive);
  EXPECT_FALSE(cls.change_sensitive);
}

TEST(Funnel, CountsAreConsistent) {
  FunnelCounts f;
  BlockClassification unresponsive;
  BlockClassification flat;
  flat.responsive = true;
  BlockClassification cs;
  cs.responsive = cs.diurnal = cs.wide_swing = cs.change_sensitive = true;
  f.add(unresponsive);
  f.add(flat);
  f.add(cs);
  f.add(cs);
  EXPECT_EQ(f.routed, 4);
  EXPECT_EQ(f.not_responsive, 1);
  EXPECT_EQ(f.responsive, 3);
  EXPECT_EQ(f.diurnal + f.not_diurnal, f.responsive);
  EXPECT_EQ(f.narrow_swing + f.wide_swing, f.responsive);
  EXPECT_EQ(f.change_sensitive + f.not_change_sensitive, f.responsive);
  EXPECT_EQ(f.change_sensitive, 2);
}

TEST(Detect, FindsWfhStyleDrop) {
  // Six weeks of strong office diurnality, then the swing disappears.
  const auto counts = office_series(70, 15.0, 2.0, 42);
  const auto changes = detect(counts);
  ASSERT_FALSE(changes.empty());
  bool found = false;
  for (const auto& c : changes) {
    if (c.direction == analysis::ChangeDirection::kDown &&
        std::llabs(util::day_index(c.alarm) - 42) <= 4 &&
        !c.filtered_as_outage) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Detect, SilentOnStablePattern) {
  const auto counts = office_series(70, 15.0);
  int unfiltered_down = 0;
  for (const auto& c : detect(counts)) {
    if (!c.filtered_as_outage &&
        c.direction == analysis::ChangeDirection::kDown) {
      ++unfiltered_down;
    }
  }
  EXPECT_EQ(unfiltered_down, 0);
}

TEST(Detect, OutagePairIsFiltered) {
  // Stable office pattern with a 2-day total outage: the down+up pair
  // must be filtered, leaving no activity changes.
  auto counts = office_series(70, 15.0);
  for (int h = 35 * 24; h < 37 * 24; ++h) counts[static_cast<std::size_t>(h)] = 0.0;
  const auto changes = detect(counts);
  // The outage is seen...
  EXPECT_GE(changes.size(), 2u);
  // ...but attributed to an outage, not to human activity.
  for (const auto& c : counted(changes)) {
    EXPECT_GT(std::llabs(util::day_index(c.alarm) - 36), 2)
        << "outage-day change survived filtering";
  }
}

TEST(Detect, PermanentDropIsNotFiltered) {
  const auto counts = office_series(70, 15.0, 2.0, 42);
  EXPECT_FALSE(counted(detect(counts)).empty());
}

TEST(Detect, ShortSeriesYieldsEmptyResult) {
  EXPECT_TRUE(detect(std::vector<double>(100, 1.0)).empty());
}

// Hourly office-like series whose workday start shifts by one hour at
// `shift_day` — a pure clock change (DST): same volume, moved phase.
std::vector<double> phase_shift_series(int days, double level,
                                       int shift_day) {
  std::vector<double> v;
  for (int d = 0; d < days; ++d) {
    const int wd = (d + 2) % 7;  // epoch is a Tuesday
    const bool work = wd >= 1 && wd <= 5;
    const int h0 = d >= shift_day ? 10 : 9;
    for (int h = 0; h < 24; ++h) {
      v.push_back(work && h >= h0 && h < h0 + 8 ? level : 1.0);
    }
  }
  return v;
}

TEST(Detect, PhaseShiftFilterAnnotatesUncorroboratedChanges) {
  // A mid-series one-hour phase shift perturbs the globally fitted STL
  // trend without moving any volume.  The corroboration filter must
  // annotate every change it produces as phase-only, and it must only
  // annotate: the change list itself is identical to the unfiltered
  // detector's.
  const auto counts = phase_shift_series(70, 15.0, 42);
  DetectorOptions on;
  on.phase_shift_filter = true;
  const auto base = detect(counts);
  const auto filtered = detect(counts, on);
  ASSERT_EQ(base.size(), filtered.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].start, filtered[i].start);
    EXPECT_EQ(base[i].direction, filtered[i].direction);
  }
  EXPECT_TRUE(counted(filtered).empty());
}

TEST(Detect, PhaseShiftFilterKeepsCorroboratedDrop) {
  // A genuine WFH-style drop moves raw volume along with the trend, so
  // the corroboration filter must leave it counted.
  const auto counts = office_series(70, 15.0, 2.0, 42);
  DetectorOptions on;
  on.phase_shift_filter = true;
  const auto activity = counted(detect(counts, on));
  EXPECT_FALSE(activity.empty());
  for (const auto& c : activity) {
    EXPECT_FALSE(c.filtered_phase_only);
  }
}

TEST(Datasets, Table6Registry) {
  const auto& all = table6_datasets();
  EXPECT_GE(all.size(), 15u);
  bool found_it89 = false;
  for (const auto& d : all) {
    if (d.abbr == "2020it89-w") {
      found_it89 = true;
      EXPECT_TRUE(d.survey);
      EXPECT_EQ(d.duration_weeks, 2);
    }
  }
  EXPECT_TRUE(found_it89);
}

TEST(Datasets, ParseAbbreviations) {
  const auto q1 = dataset("2020q1-w");
  EXPECT_EQ(util::to_string(q1.start), "2020-01-01");
  EXPECT_EQ(q1.duration_weeks, 12);
  EXPECT_EQ(q1.sites, "w");
  EXPECT_EQ(q1.full_name, "internet_outage_adaptive_a39w-20200101");

  const auto q4 = dataset("2019q4-w");
  EXPECT_EQ(util::to_string(q4.start), "2019-10-01");
  EXPECT_EQ(q4.full_name, "internet_outage_adaptive_a38w-20191001");

  const auto h1 = dataset("2020h1-ejnw");
  EXPECT_EQ(h1.duration_weeks, 24);
  EXPECT_EQ(h1.observers().size(), 4u);

  const auto m1 = dataset("2020m1-ejnw");
  EXPECT_EQ(m1.duration_weeks, 4);

  const auto survey = dataset("2020it89-w");
  EXPECT_TRUE(survey.survey);
  EXPECT_EQ(util::to_string(survey.start), "2020-02-19");

  // Weekly smoke-test periods: week n starts January 1 + 7(n-1) days.
  const auto w1 = dataset("2020w1-ejnw");
  EXPECT_EQ(util::to_string(w1.start), "2020-01-01");
  EXPECT_EQ(w1.duration_weeks, 1);
  const auto w3 = dataset("2020w3-w");
  EXPECT_EQ(util::to_string(w3.start), "2020-01-15");
  EXPECT_EQ(w3.window().end - w3.window().start,
            7 * util::kSecondsPerDay);

  EXPECT_THROW(dataset("nonsense"), std::invalid_argument);
  EXPECT_THROW(dataset("2020x7-w"), std::invalid_argument);
  EXPECT_THROW(dataset("2020w0-w"), std::invalid_argument);
  EXPECT_THROW(dataset("2020w53-w"), std::invalid_argument);
}

TEST(Datasets, WindowArithmetic) {
  const auto m1 = dataset("2020m1-w");
  const auto w = m1.window();
  EXPECT_EQ(w.start, time_of(2020, 1, 1));
  EXPECT_EQ(w.end, time_of(2020, 1, 29));
}

TEST(Aggregate, DayCountingAndSnapshots) {
  const SimTime start = time_of(2020, 1, 1);
  ChangeAggregator agg(start, time_of(2020, 3, 1));
  const geo::GridCell wuhan = geo::GridCell::of(30.6, 114.3);

  DetectedChange down;
  down.alarm = time_of(2020, 1, 27);
  down.direction = analysis::ChangeDirection::kDown;
  DetectedChange up = down;
  up.direction = analysis::ChangeDirection::kUp;
  DetectedChange outage = down;
  outage.filtered_as_outage = true;

  for (int i = 0; i < 10; ++i) {
    agg.add_block(wuhan, geo::Continent::kAsia,
                  i < 3 ? std::vector<DetectedChange>{down}
                        : std::vector<DetectedChange>{});
  }
  agg.add_block(wuhan, geo::Continent::kAsia, {up});
  agg.add_block(wuhan, geo::Continent::kAsia, {outage});  // must not count

  const auto& cell = agg.by_cell().at(wuhan);
  EXPECT_EQ(cell.change_sensitive_blocks, 12);
  const std::size_t day = agg.day_of(time_of(2020, 1, 27));
  EXPECT_EQ(cell.down[day], 3);
  EXPECT_EQ(cell.up[day], 1);
  EXPECT_NEAR(cell.down_fraction(day), 3.0 / 12.0, 1e-12);
  EXPECT_EQ(agg.continent(geo::Continent::kAsia).down[day], 3);
  EXPECT_EQ(agg.continent(geo::Continent::kEurope).down[day], 0);

  const auto snap = agg.map_snapshot(time_of(2020, 1, 27), 5);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].down_on_day, 3);
  EXPECT_EQ(snap[0].blocks, 12);
  // min_blocks filters small cells.
  EXPECT_TRUE(agg.map_snapshot(time_of(2020, 1, 27), 13).empty());
}

TEST(Aggregate, ClampsOutOfWindowTimes) {
  ChangeAggregator agg(0, 10 * util::kSecondsPerDay);
  EXPECT_EQ(agg.day_of(-500), 0u);
  EXPECT_EQ(agg.day_of(100 * util::kSecondsPerDay), 9u);
  EXPECT_EQ(agg.days(), 10u);
}

TEST(Metrics, VerdictNames) {
  EXPECT_EQ(to_string(BlockVerdict::kTruePositive), "true-positive");
  EXPECT_EQ(to_string(BlockVerdict::kNoCusum), "no-CUSUM");
}

TEST(Fleet, ThreadCountDoesNotChangeResults) {
  // The chunked work-stealing scheduler must be invisible in the output:
  // a fixed-seed world run single-threaded and with 8 workers has to
  // produce bit-identical FleetResults (block order, classifications,
  // and every detected-change field).
  sim::WorldConfig wc;
  wc.num_blocks = 120;
  wc.seed = 21;
  const sim::World world(wc);

  FleetConfig fc;
  fc.dataset = dataset("2020m1-ejnw");

  fc.threads = 1;
  const FleetResult one = run_fleet(world, fc);
  fc.threads = 8;
  const FleetResult eight = run_fleet(world, fc);

  EXPECT_EQ(one.funnel.routed, eight.funnel.routed);
  EXPECT_EQ(one.funnel.not_responsive, eight.funnel.not_responsive);
  EXPECT_EQ(one.funnel.responsive, eight.funnel.responsive);
  EXPECT_EQ(one.funnel.not_diurnal, eight.funnel.not_diurnal);
  EXPECT_EQ(one.funnel.diurnal, eight.funnel.diurnal);
  EXPECT_EQ(one.funnel.narrow_swing, eight.funnel.narrow_swing);
  EXPECT_EQ(one.funnel.wide_swing, eight.funnel.wide_swing);
  EXPECT_EQ(one.funnel.not_change_sensitive,
            eight.funnel.not_change_sensitive);
  EXPECT_EQ(one.funnel.change_sensitive, eight.funnel.change_sensitive);

  ASSERT_EQ(one.outcomes.size(), eight.outcomes.size());
  // At least some blocks must carry detections, or the comparison below
  // would be vacuous for the interesting fields.
  std::size_t total_changes = 0;
  for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
    const BlockOutcome& a = one.outcomes[i];
    const BlockOutcome& b = eight.outcomes[i];
    ASSERT_EQ(a.id.id(), b.id.id()) << "block " << i;
    EXPECT_EQ(a.cls.responsive, b.cls.responsive) << "block " << i;
    EXPECT_EQ(a.cls.diurnal, b.cls.diurnal) << "block " << i;
    EXPECT_EQ(a.cls.wide_swing, b.cls.wide_swing) << "block " << i;
    EXPECT_EQ(a.cls.change_sensitive, b.cls.change_sensitive)
        << "block " << i;
    ASSERT_EQ(a.changes.size(), b.changes.size()) << "block " << i;
    total_changes += a.changes.size();
    for (std::size_t c = 0; c < a.changes.size(); ++c) {
      const DetectedChange& x = a.changes[c];
      const DetectedChange& y = b.changes[c];
      EXPECT_EQ(x.start, y.start) << "block " << i << " change " << c;
      EXPECT_EQ(x.alarm, y.alarm) << "block " << i << " change " << c;
      EXPECT_EQ(x.end, y.end) << "block " << i << " change " << c;
      EXPECT_EQ(x.direction, y.direction) << "block " << i << " change " << c;
      // Bit-identical, not approximately equal: the per-block pipeline
      // must not depend on which worker ran it.
      EXPECT_EQ(x.amplitude, y.amplitude) << "block " << i << " change " << c;
      EXPECT_EQ(x.amplitude_addresses, y.amplitude_addresses)
          << "block " << i << " change " << c;
      EXPECT_EQ(x.filtered_as_outage, y.filtered_as_outage)
          << "block " << i << " change " << c;
      EXPECT_EQ(x.filtered_small, y.filtered_small)
          << "block " << i << " change " << c;
    }
  }
  EXPECT_GT(total_changes, 0u);
}

}  // namespace
}  // namespace diurnal::core
