// Tests for the extension modules: the Trinocular-style outage
// detector, additional-probing selection, event discovery, CSV report
// export, and the naive-trend detector option.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/detect.h"
#include "core/discovery.h"
#include "core/report.h"
#include "probe/additional_selection.h"
#include "recon/block_recon.h"
#include "recon/outage.h"
#include "sim/world.h"

namespace diurnal {
namespace {

using probe::Observation;
using probe::ObservationVec;
using probe::ProbeWindow;
using util::time_of;

// --- recon::detect_outages ---

// Always-up stream: one positive probe per round.
ObservationVec steady_stream(int rounds, bool up = true) {
  ObservationVec v;
  for (int r = 0; r < rounds; ++r) {
    v.push_back(Observation{static_cast<std::uint32_t>(r) * 660,
                            static_cast<std::uint8_t>(r % 16), up});
  }
  return v;
}

TEST(OutageDetector, SilentOnSteadyBlock) {
  const auto stream = steady_stream(2000);
  const auto r = recon::detect_outages(stream, ProbeWindow{0, 2000 * 660});
  EXPECT_TRUE(r.outages.empty());
  EXPECT_TRUE(r.ever_up);
  EXPECT_GT(r.final_availability, 0.5);
}

TEST(OutageDetector, FindsMidStreamBlackout) {
  // Up for 500 rounds, dark for 300 (16 probes/round, all negative),
  // then up again.
  ObservationVec v = steady_stream(500);
  for (int r = 500; r < 800; ++r) {
    for (int j = 0; j < 16; ++j) {
      v.push_back(Observation{static_cast<std::uint32_t>(r) * 660 + static_cast<std::uint32_t>(j),
                              static_cast<std::uint8_t>(j), false});
    }
  }
  for (int r = 800; r < 1300; ++r) {
    v.push_back(Observation{static_cast<std::uint32_t>(r) * 660,
                            static_cast<std::uint8_t>(r % 16), true});
  }
  const auto res = recon::detect_outages(v, ProbeWindow{0, 1300 * 660});
  ASSERT_EQ(res.outages.size(), 1u);
  // Start within the dark period (a few rounds of evidence needed).
  EXPECT_GE(res.outages[0].start, 500 * 660);
  EXPECT_LE(res.outages[0].start, 560 * 660);
  EXPECT_GE(res.outages[0].end, 800 * 660);
  EXPECT_LE(res.outages[0].end, 810 * 660);
}

TEST(OutageDetector, OpenEndedOutageRunsToWindowEnd) {
  ObservationVec v = steady_stream(500);
  for (int r = 500; r < 900; ++r) {
    for (int j = 0; j < 8; ++j) {
      v.push_back(Observation{static_cast<std::uint32_t>(r) * 660 + static_cast<std::uint32_t>(j),
                              static_cast<std::uint8_t>(j), false});
    }
  }
  const auto res = recon::detect_outages(v, ProbeWindow{0, 900 * 660});
  ASSERT_EQ(res.outages.size(), 1u);
  EXPECT_EQ(res.outages[0].end, 900 * 660);
}

TEST(OutageDetector, SparseBlockNotFlaggedWhileUp) {
  // A block answering only 10% of probes is sparse, not down; the
  // adaptive availability must keep the belief up.
  ObservationVec v;
  for (int r = 0; r < 4000; ++r) {
    v.push_back(Observation{static_cast<std::uint32_t>(r) * 660,
                            static_cast<std::uint8_t>(r % 16), r % 10 == 0});
  }
  const auto res = recon::detect_outages(v, ProbeWindow{0, 4000 * 660});
  EXPECT_TRUE(res.outages.empty()) << res.outages.size();
  EXPECT_LT(res.final_availability, 0.3);
}

TEST(OutageDetector, DiurnalOfficeBlockHasNoNightlyOutages) {
  sim::WorldConfig wc;
  wc.num_blocks = 0;
  const sim::World world(wc);
  const auto* office = world.find(world.usc_office_block());
  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = ProbeWindow{time_of(2020, 1, 6), time_of(2020, 2, 3)};
  probe::LossModel no_loss(probe::LossModelConfig{0, 0, 0, 'w', 1, false});
  oc.loss = no_loss;
  std::vector<probe::ObservationVec> streams;
  for (const auto& obs : oc.observers) {
    streams.push_back(probe::probe_block(*office, obs, no_loss, oc.window));
  }
  const auto merged = probe::merge_observations(std::move(streams));
  const auto res = recon::detect_outages(merged, oc.window);
  // Nights bring long negative runs, but positives from the always-on
  // hosts keep arriving; at most a stray short detection is tolerable.
  EXPECT_LE(res.outages.size(), 1u);
}

TEST(OutageDetector, RealOutageInSimulatedBlockIsFound) {
  sim::WorldConfig wc;
  wc.num_blocks = 0;
  const sim::World world(wc);
  sim::BlockProfile block = *world.find(world.usc_vpn_block());
  block.vacate_at = -1;
  const util::SimTime o_start = time_of(2020, 1, 15) + 6 * 3600;
  const util::SimTime o_end = o_start + 8 * 3600;
  block.outages.push_back(sim::OutageInterval{o_start, o_end});

  probe::LossModel no_loss(probe::LossModelConfig{0, 0, 0, 'w', 1, false});
  const ProbeWindow window{time_of(2020, 1, 6), time_of(2020, 1, 27)};
  std::vector<probe::ObservationVec> streams;
  for (const auto& obs : probe::sites_from_string("ejnw")) {
    streams.push_back(probe::probe_block(block, obs, no_loss, window));
  }
  const auto merged = probe::merge_observations(std::move(streams));
  const auto res = recon::detect_outages(merged, window);
  bool found = false;
  for (const auto& o : res.outages) {
    if (o.start < o_end && o.end > o_start) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(OutageDetector, EmptyStream) {
  const auto res = recon::detect_outages({}, ProbeWindow{0, 1000});
  EXPECT_TRUE(res.outages.empty());
  EXPECT_FALSE(res.ever_up);
}

// --- probe::AdditionalProbingSelector ---

std::vector<probe::BlockScanSample> synthetic_scan_samples() {
  // FBS grows with |E(b)| * availability (one probe per round on
  // always-answering targets).
  std::vector<probe::BlockScanSample> samples;
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 600; ++i) {
    probe::BlockScanSample s;
    s.id = net::BlockId(static_cast<std::uint32_t>(1000 + i));
    s.eb_count = 8 + static_cast<int>(rng.below(249));
    s.availability = rng.uniform(0.01, 1.0);
    const double rounds = s.eb_count * (0.3 + 0.7 * s.availability);
    s.observed_fbs_hours = rounds * 660.0 / 3600.0 + rng.normal(0, 0.3);
    samples.push_back(s);
  }
  return samples;
}

TEST(AdditionalSelection, LearnsTheFbsBoundary) {
  const auto samples = synthetic_scan_samples();
  probe::AdditionalProbingSelector sel;
  sel.fit(samples);
  const auto m = sel.evaluate(samples);
  EXPECT_GT(m.accuracy(), 0.85);
  // The paper reports a very low false-negative rate (0.5%): missing an
  // under-probed block is the costly error.
  EXPECT_LT(m.false_negative_rate(), 0.15);
}

TEST(AdditionalSelection, ExcludesTinyAndIdleBlocks) {
  const auto samples = synthetic_scan_samples();
  probe::AdditionalProbingSelector sel;
  sel.fit(samples);
  EXPECT_FALSE(sel.should_probe(16, 0.9));   // |E(b)| < 32
  EXPECT_FALSE(sel.should_probe(200, 0.01)); // A < 0.05
  EXPECT_TRUE(sel.should_probe(256, 0.95));  // the worst case
}

TEST(AdditionalSelection, RejectsEmptyFit) {
  probe::AdditionalProbingSelector sel;
  EXPECT_THROW(sel.fit({}), std::invalid_argument);
  EXPECT_THROW(sel.should_probe(100, 0.5), std::logic_error);
}

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
