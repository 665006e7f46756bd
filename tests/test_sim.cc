// Tests for the synthetic-world substrate: activity oracle, events,
// and the generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geo/countries.h"
#include "sim/activity_cursor.h"
#include "sim/block_profile.h"
#include "sim/country_layers.h"
#include "sim/events.h"
#include "sim/schedule.h"
#include "sim/world.h"

namespace diurnal::sim {
namespace {

using util::SimTime;
using util::time_of;

WorldConfig small_config(int blocks = 500) {
  WorldConfig c;
  c.num_blocks = blocks;
  c.seed = 99;
  return c;
}

TEST(World, GenerationIsDeterministic) {
  World a(small_config()), b(small_config());
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(a.blocks()[i].id, b.blocks()[i].id);
    EXPECT_EQ(a.blocks()[i].category, b.blocks()[i].category);
    EXPECT_EQ(a.blocks()[i].eb_count, b.blocks()[i].eb_count);
    EXPECT_EQ(a.blocks()[i].seed, b.blocks()[i].seed);
  }
  // And the activity oracle agrees point-for-point.
  const auto& blk = a.blocks()[42];
  for (SimTime t = 0; t < util::kSecondsPerDay; t += 3600) {
    EXPECT_EQ(active_count(blk, t), active_count(b.blocks()[42], t));
  }
}

TEST(World, DifferentSeedsDiffer) {
  auto c1 = small_config();
  auto c2 = small_config();
  c2.seed = 100;
  World a(c1), b(c2);
  int differing = 0;
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    differing += a.blocks()[i].category != b.blocks()[i].category;
  }
  EXPECT_GT(differing, 10);
}

TEST(World, FindAndGeoDb) {
  World w(small_config());
  const auto& blk = w.blocks()[7];
  ASSERT_NE(w.find(blk.id), nullptr);
  EXPECT_EQ(w.find(blk.id)->id, blk.id);
  EXPECT_EQ(w.find(net::BlockId(1)), nullptr);
  const auto rec = w.geodb().lookup(blk.id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_NEAR(rec->lat, blk.lat, 1e-6);
  EXPECT_EQ(rec->country, blk.country);
}

TEST(World, CategoryMixPlausible) {
  World w(small_config(8000));
  int responsive = 0, diurnal_cat = 0, total = 0;
  for (const auto& b : w.blocks()) {
    ++total;
    if (b.category != BlockCategory::kUnused &&
        b.category != BlockCategory::kFirewalled) {
      ++responsive;
    }
    if (is_diurnal_category(b.category)) ++diurnal_cat;
  }
  // Paper scale: ~46.5% responsive; diurnal categories a few percent.
  EXPECT_NEAR(static_cast<double>(responsive) / total, 0.465, 0.05);
  const double diurnal_frac = static_cast<double>(diurnal_cat) / responsive;
  EXPECT_GT(diurnal_frac, 0.02);
  EXPECT_LT(diurnal_frac, 0.15);
}

TEST(Activity, OfficeBlockIsDiurnalAndWorkWeek) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  ASSERT_NE(office, nullptr);
  // Wednesday 2020-01-08 local noon (UTC-8 -> 20:00 UTC) vs local 3am.
  const SimTime noon = time_of(2020, 1, 8) + 20 * 3600;
  const SimTime night = time_of(2020, 1, 8) + 11 * 3600;
  EXPECT_GT(active_count(*office, noon), 8);
  EXPECT_LE(active_count(*office, night), 4);
  // Sunday local noon is nearly empty.
  const SimTime sunday_noon = time_of(2020, 1, 12) + 20 * 3600;
  EXPECT_LT(active_count(*office, sunday_noon), 6);
}

TEST(Activity, WfhSuppresssesOfficeActivity) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  // Wednesday before WFH vs Wednesday after (local noon).
  const SimTime before = time_of(2020, 3, 4) + 20 * 3600;
  const SimTime after = time_of(2020, 3, 25) + 20 * 3600;
  EXPECT_GT(active_count(*office, before), 8);
  EXPECT_LT(active_count(*office, after), 5);
  const auto wfh =
      std::find_if(office->suppressions.begin(), office->suppressions.end(),
                   [](const Suppression& s) {
                     return s.kind == EventKind::kWorkFromHome;
                   });
  ASSERT_NE(wfh, office->suppressions.end());
  EXPECT_EQ(util::to_string(util::date_of(wfh->start)), "2020-03-15");
}

TEST(Activity, HolidayDipsAttendance) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  // MLK day (Monday 2020-01-20) vs the following Monday, local noon.
  const SimTime mlk = time_of(2020, 1, 20) + 20 * 3600;
  const SimTime normal = time_of(2020, 1, 27) + 20 * 3600;
  EXPECT_LT(active_count(*office, mlk), active_count(*office, normal) / 2 + 2);
}

TEST(Activity, OutageSilencesBlock) {
  World w(small_config(0));
  BlockProfile blk = *w.find(w.usc_office_block());
  const SimTime noon = time_of(2020, 1, 8) + 20 * 3600;
  ASSERT_GT(active_count(blk, noon), 0);
  blk.outages.push_back(OutageInterval{noon - 3600, noon + 3600});
  EXPECT_EQ(active_count(blk, noon), 0);
  EXPECT_GT(active_count(blk, noon + 7200), 0);
}

TEST(Activity, RenumberingGapThenNewPopulation) {
  World w(small_config(0));
  const BlockProfile* blk = w.find(w.renumber_case_block());
  ASSERT_NE(blk, nullptr);
  const SimTime before = blk->renumber_at - util::kSecondsPerDay;
  const SimTime gap = blk->renumber_at + 3600;
  const SimTime after = blk->renumber_at + 2 * util::kSecondsPerDay;
  EXPECT_GT(active_count(*blk, before), 0);
  EXPECT_EQ(active_count(*blk, gap), 0);
  EXPECT_GT(active_count(*blk, after), 0);
}

TEST(Activity, VacatedBlockDropsToInfrastructure) {
  World w(small_config(0));
  const BlockProfile* vpn = w.find(w.usc_vpn_block());
  ASSERT_NE(vpn, nullptr);
  const SimTime before = time_of(2020, 2, 5) + 20 * 3600;
  const SimTime after = time_of(2020, 4, 1) + 20 * 3600;
  EXPECT_GT(active_count(*vpn, before), 50);
  EXPECT_LE(active_count(*vpn, after), 2);
}

TEST(Activity, OutOfRangeAddressesNeverRespond) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  const SimTime noon = time_of(2020, 1, 8) + 20 * 3600;
  EXPECT_FALSE(address_active(*office, office->eb_count, noon));
  EXPECT_FALSE(address_active(*office, -1, noon));
  EXPECT_FALSE(address_active(*office, 255, noon));
}

TEST(Activity, AlwaysOnAddressesStayUp) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  int up = 0, total = 0;
  for (SimTime t = 0; t < 14 * util::kSecondsPerDay; t += 7200) {
    for (int a = 0; a < office->always_on; ++a) {
      up += address_active(*office, a, t);
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(up) / total, 0.97);
}

TEST(Activity, TruthSeriesMatchesOracle) {
  World w(small_config(0));
  const BlockProfile* office = w.find(w.usc_office_block());
  const SimTime t0 = time_of(2020, 1, 6);
  const auto series = w.truth_series(*office, t0, t0 + util::kSecondsPerDay, 3600);
  ASSERT_EQ(series.size(), 24u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i], active_count(*office, series.time_at(i)));
  }
}

TEST(Events, DefaultCalendarContents) {
  const auto cal = default_calendar();
  int wfh = 0, holidays = 0, unrest = 0;
  for (const auto& e : cal) {
    switch (e.kind) {
      case EventKind::kWorkFromHome: ++wfh; break;
      case EventKind::kHoliday: ++holidays; break;
      case EventKind::kCurfewUnrest: ++unrest; break;
    }
  }
  EXPECT_GE(wfh, 20);       // most registry countries have a WFH date
  EXPECT_GE(holidays, 8);
  EXPECT_GE(unrest, 2);     // Delhi and the UAE curfew
}

TEST(Events, ScopeMatching) {
  EventScope country_only;
  country_only.country_code = "IN";
  EXPECT_TRUE(country_only.matches("IN", geo::GridCell{0, 0}));
  EXPECT_FALSE(country_only.matches("CN", geo::GridCell{0, 0}));

  EventScope cell_scoped;
  cell_scoped.country_code = "IN";
  cell_scoped.cell = geo::GridCell::of(28.6, 77.2);
  EXPECT_TRUE(cell_scoped.matches("IN", geo::GridCell::of(28.0, 76.5)));
  EXPECT_FALSE(cell_scoped.matches("IN", geo::GridCell::of(19.1, 72.9)));
}

TEST(Events, EventsForFiltersByWindow) {
  const auto cal = default_calendar();
  const auto in_jan = events_for(cal, "CN", geo::GridCell::of(30.6, 114.3),
                                 time_of(2020, 1, 1), time_of(2020, 2, 1));
  bool has_spring_festival = false;
  for (const auto* e : in_jan) {
    if (e->name == "spring-festival-2020") has_spring_festival = true;
  }
  EXPECT_TRUE(has_spring_festival);
  const auto in_2019 = events_for(cal, "CN", geo::GridCell::of(30.6, 114.3),
                                  time_of(2019, 10, 1), time_of(2019, 11, 1));
  for (const auto* e : in_2019) {
    EXPECT_NE(e->name, "spring-festival-2020");
  }
}

TEST(Events, DelhiUnrestOnlyAffectsDelhiCell) {
  World w(small_config(6000));
  int delhi_unrest = 0, elsewhere_unrest = 0;
  const auto delhi = geo::GridCell::of(28.6, 77.2);
  for (const auto& b : w.blocks()) {
    for (const auto& s : b.suppressions) {
      if (s.kind != EventKind::kCurfewUnrest) continue;
      if (geo::countries()[b.country].code == "AE") continue;  // UAE curfew
      if (b.cell() == delhi) ++delhi_unrest;
      else ++elsewhere_unrest;
    }
  }
  EXPECT_GT(delhi_unrest, 0);
  EXPECT_EQ(elsewhere_unrest, 0);
}

TEST(Events, WfhAdoptionJitterWithinBounds) {
  World w(small_config(8000));
  const SimTime horizon = time_of(2020, 7, 1);
  int adopted = 0;
  for (const auto& b : w.blocks()) {
    // Home blocks respond to WFH with more daytime activity; the office
    // and campus onsets are the ones the detector is scored against.
    if (b.category == BlockCategory::kHomeDynamic) continue;
    const auto wfh =
        std::find_if(b.suppressions.begin(), b.suppressions.end(),
                     [](const Suppression& s) {
                       return s.kind == EventKind::kWorkFromHome;
                     });
    if (wfh == b.suppressions.end()) continue;
    ++adopted;
    const auto& country = geo::countries()[b.country];
    ASSERT_TRUE(country.wfh_2020.has_value());
    const SimTime official = time_of(*country.wfh_2020);
    EXPECT_GE(wfh->start, official - 2 * util::kSecondsPerDay);
    EXPECT_LE(wfh->start, official + 3 * util::kSecondsPerDay);
    EXPECT_LT(wfh->start, horizon);
  }
  EXPECT_GT(adopted, 50);
}

TEST(World, SpecialBlocksPresentOnlyWhenRequested) {
  auto cfg = small_config(10);
  cfg.include_special_blocks = false;
  World w(cfg);
  EXPECT_EQ(w.find(net::BlockId::parse("128.9.144.0/24")), nullptr);
  EXPECT_EQ(w.blocks().size(), 10u);
}

TEST(BlockCategoryNames, AllDistinct) {
  EXPECT_EQ(to_string(BlockCategory::kOffice), "office");
  EXPECT_EQ(to_string(BlockCategory::kNatGateway), "nat-gateway");
  EXPECT_NE(to_string(BlockCategory::kServerFarm),
            to_string(BlockCategory::kHomeDynamic));
}

// ---------------------------------------------------------------------------
// ActivityCursor must be an exact drop-in for address_active under its
// monotone-time contract.  These property tests throw randomized block
// profiles (every category; renumber/vacate/outage edges; overlapping
// suppressions) and randomized non-decreasing probe times at both and
// demand bit-identical answers.
// ---------------------------------------------------------------------------

constexpr SimTime kCursorHorizon = 200 * util::kSecondsPerDay;

BlockProfile random_profile(util::Xoshiro256& rng) {
  static constexpr BlockCategory kCats[] = {
      BlockCategory::kUnused,       BlockCategory::kFirewalled,
      BlockCategory::kServerFarm,   BlockCategory::kNatGateway,
      BlockCategory::kIntermittent, BlockCategory::kMixed,
      BlockCategory::kOffice,       BlockCategory::kUniversity,
      BlockCategory::kHomeDynamic,
  };
  BlockProfile b;
  b.id = net::BlockId(static_cast<std::uint32_t>(rng()));
  b.category = kCats[rng.below(std::size(kCats))];
  b.tz_offset_hours = static_cast<std::int16_t>(rng.range(-11, 12));
  b.eb_count = static_cast<std::uint16_t>(rng.range(1, 96));
  b.always_on = static_cast<std::uint16_t>(rng.range(0, 4));
  b.seed = rng();
  b.base_attendance = static_cast<float>(rng.uniform(0.5, 1.0));
  b.current_fraction =
      rng.chance(0.5) ? 1.0f : static_cast<float>(rng.uniform(0.1, 1.0));

  // Overlapping, unsorted suppressions (holiday + WFH mixtures).
  const int n_sup = static_cast<int>(rng.below(4));
  for (int i = 0; i < n_sup; ++i) {
    Suppression s;
    s.start = rng.range(0, kCursorHorizon);
    s.end = s.start + rng.range(3600, 40 * util::kSecondsPerDay);
    s.residual_attendance = rng.uniform(0.05, 0.9);
    s.kind = rng.chance(0.4) ? EventKind::kWorkFromHome : EventKind::kHoliday;
    b.suppressions.push_back(s);
  }
  // Outages, including zero-length edge and back-to-back intervals.
  const int n_out = static_cast<int>(rng.below(3));
  for (int i = 0; i < n_out; ++i) {
    OutageInterval o;
    o.start = rng.range(0, kCursorHorizon);
    o.end = o.start + rng.range(0, 3 * util::kSecondsPerDay);
    b.outages.push_back(o);
  }
  if (rng.chance(0.25)) b.renumber_at = rng.range(0, kCursorHorizon);
  if (rng.chance(0.2)) b.vacate_at = rng.range(0, kCursorHorizon);
  // DST-style offset shifts (sorted, absolute offsets) and CGNAT
  // absorption, so the cursor-oracle equivalence covers the
  // country-layer structure too.
  if (rng.chance(0.3)) {
    const int n_shift = static_cast<int>(rng.range(1, 3));
    SimTime at = rng.range(0, kCursorHorizon / 2);
    for (int i = 0; i < n_shift; ++i) {
      TzShift s;
      s.at = at;
      s.offset_hours =
          static_cast<std::int16_t>(b.tz_offset_hours + (i % 2 == 0 ? 1 : 0));
      b.tz_shifts.push_back(s);
      at += rng.range(3600, kCursorHorizon / 2);
    }
  }
  if (rng.chance(0.2)) b.cgnat_at = rng.range(0, kCursorHorizon);
  if (rng.chance(0.3)) {
    b.occupied_from = rng.range(0, kCursorHorizon / 2);
    if (rng.chance(0.7)) {
      b.occupied_until = b.occupied_from + rng.range(0, kCursorHorizon);
    }
  }
  return b;
}

TEST(ActivityCursor, MatchesOracleOnRandomProfiles) {
  util::Xoshiro256 rng(2023);
  ActivityCursor cursor;
  for (int trial = 0; trial < 200; ++trial) {
    const BlockProfile b = random_profile(rng);
    cursor.bind(b);
    SimTime t = rng.range(-2 * util::kSecondsPerDay, util::kSecondsPerDay);
    for (int step = 0; step < 2000; ++step) {
      // Mostly small steps (within-round cadence), occasionally large
      // jumps so epochs, outages, and renumbering edges all get crossed.
      t += rng.chance(0.9) ? rng.range(0, 660) : rng.range(0, 5 * 86400);
      const int addr = static_cast<int>(
          rng.range(-1, static_cast<std::int64_t>(b.eb_count)));
      ASSERT_EQ(cursor.active(addr, t), address_active(b, addr, t))
          << "trial " << trial << " category " << to_string(b.category)
          << " addr " << addr << " t " << t;
    }
  }
}

TEST(ActivityCursor, MatchesOracleAroundStructuralEdges) {
  util::Xoshiro256 rng(77);
  ActivityCursor cursor;
  for (int trial = 0; trial < 100; ++trial) {
    BlockProfile b = random_profile(rng);
    // Force the interesting structure on.
    b.renumber_at = rng.range(10 * 86400, 60 * 86400);
    b.vacate_at = rng.chance(0.5) ? rng.range(80 * 86400, 120 * 86400) : -1;
    b.outages.push_back(
        {b.renumber_at - 3600, b.renumber_at + rng.range(0, 7200)});

    // Probe a dense monotone grid straddling every edge.
    std::vector<SimTime> edges = {b.renumber_at,
                                  b.renumber_at + 4 * 3600,
                                  b.vacate_at,
                                  b.occupied_from,
                                  b.occupied_until,
                                  b.cgnat_at};
    for (const auto& s : b.tz_shifts) edges.push_back(s.at);
    for (const auto& o : b.outages) {
      edges.push_back(o.start);
      edges.push_back(o.end);
    }
    for (const auto& s : b.suppressions) {
      edges.push_back(s.start);
      edges.push_back(s.end);
    }
    std::sort(edges.begin(), edges.end());
    cursor.bind(b);
    for (const SimTime e : edges) {
      if (e < 0) continue;
      for (SimTime t = e - 2; t <= e + 2; ++t) {
        for (int addr = 0; addr < static_cast<int>(b.eb_count);
             addr += 1 + static_cast<int>(b.eb_count) / 7) {
          ASSERT_EQ(cursor.active(addr, t), address_active(b, addr, t))
              << "edge " << e << " t " << t << " addr " << addr;
        }
      }
    }
  }
}

TEST(Schedule, DstTransitionsShiftLocalClockByExactlyOneHour) {
  // US Pacific block over the default horizon: DST is already in force
  // on 2019-10-01, falls back 2019-11-03 02:00 PDT (09:00 UTC), and
  // springs forward 2020-03-08 02:00 PST (10:00 UTC).
  BlockProfile b;
  b.tz_offset_hours = -8;
  b.tz_shifts = materialize_dst(geo::DstPolicy::kNorthern, -8,
                                time_of(2019, 10, 1), time_of(2020, 7, 1));
  ASSERT_EQ(b.tz_shifts.size(), 3u);
  EXPECT_EQ(b.tz_shifts[0].at, time_of(2019, 10, 1));
  EXPECT_EQ(b.tz_shifts[0].offset_hours, -7);
  EXPECT_EQ(b.tz_shifts[1].at, time_of(2019, 11, 3) + 9 * 3600);
  EXPECT_EQ(b.tz_shifts[1].offset_hours, -8);
  EXPECT_EQ(b.tz_shifts[2].at, time_of(2020, 3, 8) + 10 * 3600);
  EXPECT_EQ(b.tz_shifts[2].offset_hours, -7);

  // Every transition moves the local clock by exactly one hour, and the
  // LocalClock view shows the classic skip/repeat.
  for (std::size_t i = 1; i < b.tz_shifts.size(); ++i) {
    const SimTime at = b.tz_shifts[i].at;
    const auto off_before = schedule::tz_offset_seconds(b, at - 1);
    const auto off_after = schedule::tz_offset_seconds(b, at);
    EXPECT_EQ(std::abs(off_after - off_before), 3600) << "shift " << i;
  }
  // Fall back: 01:xx PDT is followed by 01:xx PST — the hour repeats.
  EXPECT_EQ(schedule::local_clock(b, b.tz_shifts[1].at - 3600).hour, 1);
  EXPECT_EQ(schedule::local_clock(b, b.tz_shifts[1].at).hour, 1);
  // Spring forward: 01:xx PST is followed by 03:xx PDT — 02:xx is skipped.
  EXPECT_EQ(schedule::local_clock(b, b.tz_shifts[2].at - 3600).hour, 1);
  EXPECT_EQ(schedule::local_clock(b, b.tz_shifts[2].at).hour, 3);
}

TEST(Schedule, SouthernDstMirrorsTheNorthernSeason) {
  // Southern-hemisphere DST spans the new year: in force from the first
  // Sunday of October through the first Sunday of April.
  const auto shifts =
      materialize_dst(geo::DstPolicy::kSouthern, 10, time_of(2019, 10, 1),
                      time_of(2020, 7, 1));
  ASSERT_EQ(shifts.size(), 2u);
  EXPECT_EQ(shifts[0].offset_hours, 11);  // spring forward, Oct 6
  EXPECT_EQ(shifts[1].offset_hours, 10);  // fall back, Apr 5
  // Transition instants are UTC: 02:00 local standard on the first
  // Sunday of October (UTC+10), 02:00 local daylight on the first
  // Sunday of April (UTC+11).
  EXPECT_EQ(shifts[0].at, time_of(2019, 10, 6) + 2 * 3600 - 10 * 3600);
  EXPECT_EQ(shifts[1].at, time_of(2020, 4, 5) + 2 * 3600 - 11 * 3600);
}

TEST(ActivityCursor, RebindResetsMonotonicityContract) {
  World w(small_config(50));
  ActivityCursor cursor;
  const SimTime late = 150 * util::kSecondsPerDay;
  const SimTime early = 3 * util::kSecondsPerDay;
  for (const auto& b : w.blocks()) {
    cursor.bind(b);
    for (int addr = 0; addr < b.eb_count; ++addr) {
      ASSERT_EQ(cursor.active(addr, late), address_active(b, addr, late));
    }
    // Re-binding the same block restarts time.
    cursor.bind(b);
    for (int addr = 0; addr < b.eb_count; ++addr) {
      ASSERT_EQ(cursor.active(addr, early), address_active(b, addr, early));
    }
  }
}

}  // namespace
}  // namespace diurnal::sim
