// Tests for the extension modules: event discovery and CSV report export.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/detect.h"
#include "core/discovery.h"
#include "core/report.h"
#include "sim/world.h"

namespace diurnal {
namespace {

using util::time_of;

// --- core::discover_events ---

TEST(Discovery, FindsSpikeAndMergesDays) {
  core::ChangeAggregator agg(0, 60 * util::kSecondsPerDay);
  const geo::GridCell cell = geo::GridCell::of(30.0, 114.0);
  // 40 blocks; background: 1 block down on day 5; spike: 8 and 6 blocks
  // on days 20-21.
  auto add = [&](util::SimTime alarm_day, int n) {
    for (int i = 0; i < n; ++i) {
      core::DetectedChange c;
      c.alarm = alarm_day * util::kSecondsPerDay;
      c.direction = analysis::ChangeDirection::kDown;
      c.amplitude_addresses = -5;
      agg.add_block(cell, geo::Continent::kAsia, {c});
    }
  };
  add(5, 1);
  add(20, 8);
  add(21, 6);
  for (int i = 0; i < 25; ++i) {
    agg.add_block(cell, geo::Continent::kAsia, {});
  }
  const auto events = core::discover_events(agg);
  ASSERT_EQ(events.size(), 1u);
  // Windowed semantics: the event spans every 5-day window containing
  // the spike days 20-21, and the peak window holds both (8 + 6).
  EXPECT_LE(util::day_index(events[0].start), 20);
  EXPECT_GE(util::day_index(events[0].end - 1), 21);
  EXPECT_EQ(events[0].peak_blocks, 14);
  EXPECT_EQ(events[0].cell_blocks, 40);
  EXPECT_FALSE(events[0].to_string().empty());
}

TEST(Discovery, IgnoresSmallCellsAndQuietSeries) {
  core::ChangeAggregator agg(0, 30 * util::kSecondsPerDay);
  const geo::GridCell small = geo::GridCell::of(0.0, 0.0);
  core::DetectedChange c;
  c.alarm = 10 * util::kSecondsPerDay;
  c.direction = analysis::ChangeDirection::kDown;
  agg.add_block(small, geo::Continent::kAfrica, {c});  // 1 block only
  EXPECT_TRUE(core::discover_events(agg).empty());
}

// Ties in peak fraction (and in block count) are ordered by cell, then
// start, not by the order cells reached the aggregator: the sharded
// drive merges shard aggregators in completion order.
TEST(Discovery, TiedEventsHaveOneOrder) {
  const std::vector<geo::GridCell> cells = {{15, 57}, {-10, 3}, {15, 56},
                                            {20, 60}, {0, 0},   {15, 58}};
  // Ten blocks per cell, five down on day 20 and five on day 40: two
  // events per cell, every one peaking at 50%.
  const auto fill = [](core::ChangeAggregator& agg, geo::GridCell cell) {
    for (int i = 0; i < 10; ++i) {
      core::DetectedChange c;
      c.alarm = (i < 5 ? 20 : 40) * util::kSecondsPerDay;
      c.direction = analysis::ChangeDirection::kDown;
      agg.add_block(cell, geo::Continent::kAsia, {c});
    }
  };
  core::ChangeAggregator forward(0, 60 * util::kSecondsPerDay);
  core::ChangeAggregator backward(0, 60 * util::kSecondsPerDay);
  for (const auto& cell : cells) fill(forward, cell);
  for (auto it = cells.rbegin(); it != cells.rend(); ++it) fill(backward, *it);

  const auto a = core::discover_events(forward);
  const auto b = core::discover_events(backward);
  ASSERT_EQ(a.size(), 2 * cells.size());
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].to_string(), b[k].to_string()) << k;
    if (k > 0) {
      EXPECT_TRUE(a[k - 1].cell < a[k].cell ||
                  (a[k - 1].cell == a[k].cell && a[k - 1].start < a[k].start))
          << k;
    }
  }

  const auto sa = forward.map_snapshot(20 * util::kSecondsPerDay, 5);
  const auto sb = backward.map_snapshot(20 * util::kSecondsPerDay, 5);
  ASSERT_EQ(sa.size(), cells.size());
  ASSERT_EQ(sb.size(), sa.size());
  for (std::size_t k = 0; k < sa.size(); ++k) {
    EXPECT_EQ(sa[k].cell, sb[k].cell) << k;
    EXPECT_EQ(sa[k].blocks, sb[k].blocks) << k;
    EXPECT_EQ(sa[k].down_on_day, sb[k].down_on_day) << k;
    if (k > 0) {
      EXPECT_LT(sa[k - 1].cell, sa[k].cell) << k;
    }
  }
}

TEST(Discovery, EndToEndFindsWfhRegion) {
  sim::WorldConfig wc;
  wc.num_blocks = 1200;
  wc.seed = 4;
  wc.only_country = "SI";  // Slovenia: one gridcell, WFH 2020-03-16
  const sim::World world(wc);
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020q1-ejnw");
  const auto fleet = core::run_fleet(world, fc);
  const auto agg = core::aggregate_changes(world, fleet, fc);
  const auto events = core::discover_events(agg);
  ASSERT_FALSE(events.empty());
  // The top event must bracket the national WFH period (detections run
  // a few days early: blocks adopt orders up to 2 days before the
  // official date and the smoothed trend anticipates by ~4 more).
  const auto top = events.front();
  EXPECT_LE(top.start, time_of(2020, 3, 18)) << top.to_string();
  EXPECT_GE(top.end, time_of(2020, 3, 8)) << top.to_string();
}

// --- core report export ---

TEST(Report, WritesAllCsvFiles) {
  sim::WorldConfig wc;
  wc.num_blocks = 300;
  wc.seed = 6;
  const sim::World world(wc);
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  const auto fleet = core::run_fleet(world, fc);
  const auto agg = core::aggregate_changes(world, fleet, fc);

  const auto dir = std::filesystem::temp_directory_path() / "diurnal_report";
  std::filesystem::create_directories(dir);
  const auto prefix = (dir / "t-").string();
  const auto paths = core::write_report(prefix, world, fleet, agg);

  for (const auto& p : {paths.funnel, paths.blocks, paths.changes, paths.cells}) {
    std::ifstream in(p);
    ASSERT_TRUE(in.good()) << p;
    std::string header;
    std::getline(in, header);
    EXPECT_FALSE(header.empty()) << p;
  }
  // The funnel file must carry the routed total.
  std::ifstream in(paths.funnel);
  std::string line;
  bool found_routed = false;
  while (std::getline(in, line)) {
    if (line.rfind("routed,", 0) == 0) {
      EXPECT_EQ(line, "routed," + std::to_string(fleet.funnel.routed));
      found_routed = true;
    }
  }
  EXPECT_TRUE(found_routed);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace diurnal
