#include "validate/scenario.h"

#include "geo/gridcell.h"
#include "util/date.h"

namespace diurnal::validate {

namespace {

using util::Date;
using util::time_of;

// All synthetic scenarios probe 2020m1 (Jan 1 .. Jan 29): long enough
// for two STL periods of baseline before a mid-January event, short
// enough that the whole catalog runs in CI time.  Events are planted
// inside [start + 7d, end - 4d] so they are eligible truth.
constexpr char kDataset[] = "2020m1-ejnw";

/// A world whose ONLY activity changes are the planted calendar events:
/// no occupancy churn, no outages, no renumbering, no special-case
/// blocks, and a boosted diurnal share so a few hundred blocks yield a
/// statistically useful population of change-sensitive ones.
sim::WorldConfig quiet_world(std::uint64_t seed, int blocks,
                             const char* only_country) {
  sim::WorldConfig w;
  w.seed = seed;
  w.num_blocks = blocks;
  w.include_special_blocks = false;
  if (only_country != nullptr) w.only_country = only_country;
  w.diurnal_scale = 0.30;
  w.occupancy_churn = 0.0;
  w.stable_population = true;
  w.outage_rate_per_90d = 0.0;
  w.renumber_probability = 0.0;
  w.quiet_calendar = true;  // scenarios plant calendars explicitly
  return w;
}

sim::Event wfh(const char* cc, Date start, double adoption) {
  sim::Event e;
  e.kind = sim::EventKind::kWorkFromHome;
  e.name = std::string("planted-wfh-") + cc;
  e.scope.country_code = cc;
  e.start = time_of(start);
  e.end = time_of(2020, 7, 1);  // persists past the analysis window
  e.adoption = adoption;
  e.residual_attendance = 0.10;
  return e;
}

sim::Event holiday(const char* cc, Date start, Date end, double adoption) {
  sim::Event e;
  e.kind = sim::EventKind::kHoliday;
  e.name = std::string("planted-holiday-") + cc;
  e.scope.country_code = cc;
  e.start = time_of(start);
  e.end = time_of(end);
  e.adoption = adoption;
  e.residual_attendance = 0.08;
  return e;
}

sim::Event curfew(const char* cc, geo::GridCell cell, Date start, Date end,
                  double adoption) {
  sim::Event e;
  e.kind = sim::EventKind::kCurfewUnrest;
  e.name = std::string("planted-curfew-") + cc;
  e.scope.country_code = cc;
  e.scope.cell = cell;
  e.start = time_of(start);
  e.end = time_of(end);
  e.adoption = adoption;
  e.residual_attendance = 0.15;
  return e;
}

std::vector<Scenario> build_catalog() {
  std::vector<Scenario> v;

  {
    Scenario s;
    s.name = "clean_diurnal";
    s.title = "healthy diurnal world, no events planted: must stay silent";
    s.world = quiet_world(101, 400, "US");
    s.dataset = kDataset;
    s.expect_zero_truth = true;
    s.expect_zero_confirmed = true;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wfh_step";
    s.title = "nationwide WFH step on 2020-01-15 (office/university drop)";
    s.world = quiet_world(102, 500, "US");
    s.world.calendar.push_back(wfh("US", Date{2020, 1, 15}, 0.65));
    s.dataset = kDataset;
    s.precision_floor = 0.8;
    s.recall_floor = 0.4;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "holiday_dip";
    s.title = "week-long holiday Jan 12-19 (dip and recovery both truth)";
    s.world = quiet_world(103, 500, "CN");
    s.world.calendar.push_back(
        holiday("CN", Date{2020, 1, 12}, Date{2020, 1, 19}, 0.9));
    s.dataset = kDataset;
    s.precision_floor = 0.8;
    // Recall here is bounded by the raw-outage cross-check: a deep
    // week-long dip flickers above the blackout threshold, producing
    // short bounded low-runs that straddle the down/up excursion pair,
    // so the section 2.6 filter discards many genuine dip+recovery
    // detections (98 of them in the baseline run).  The paper has the
    // same tension — its outage filter trades holiday recall for outage
    // precision — so the floor reflects the pipeline as specified, not a
    // harness defect.
    s.recall_floor = 0.35;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "curfew_geo";
    s.title = "curfew scoped to the Delhi gridcell: truth only in-cell";
    s.world = quiet_world(104, 600, "IN");
    s.world.calendar.push_back(curfew("IN", geo::GridCell::of(28.6, 77.2),
                                      Date{2020, 1, 12}, Date{2020, 1, 19},
                                      0.6));
    s.dataset = kDataset;
    // Dense single-city worlds detect plenty of sub-threshold activity
    // shifts in the out-of-cell population (measured ~72% precision /
    // 66% recall); the floors bound regression, not the paper's
    // country-scale figures.
    s.precision_floor = 0.65;
    s.recall_floor = 0.5;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "paired_outage";
    s.title = "outage/renumbering storm, no events: pair filter must absorb";
    s.world = quiet_world(105, 400, "US");
    // Compress the horizon around the analysis window so the planted
    // outages and renumberings actually land inside it (by default they
    // are drawn across nine months and mostly miss the four probed
    // weeks), and renumber nearly every block: this is the scenario that
    // exercises the section 2.6 pair-discard path.
    s.world.horizon_start = time_of(2020, 1, 1);
    s.world.horizon_end = time_of(2020, 2, 15);
    s.world.outage_rate_per_90d = 12.0;
    s.world.renumber_probability = 0.9;
    s.dataset = kDataset;
    s.expect_zero_truth = true;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wfh_dropout";
    s.title = "the WFH step probed by a fleet losing one observer";
    s.world = quiet_world(102, 500, "US");  // identical to wfh_step
    s.world.calendar.push_back(wfh("US", Date{2020, 1, 15}, 0.65));
    s.dataset = kDataset;
    s.fault_scenario = "dropout";
    s.precision_floor = 0.7;
    s.clean_counterpart = "wfh_step";
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wfh_bursts";
    s.title = "the WFH step probed through bursty loss (evidence destroyed)";
    s.world = quiet_world(102, 500, "US");  // identical to wfh_step
    s.world.calendar.push_back(wfh("US", Date{2020, 1, 15}, 0.65));
    s.dataset = kDataset;
    s.fault_scenario = "bursts";
    s.precision_floor = 0.7;
    s.clean_counterpart = "wfh_step";
    // Bursty loss degrades whole blocks out of the scored set, so the
    // recall *ratio* is computed over a different denominator than the
    // clean run's and is not comparable; the scored-truth bound still
    // applies (see check_fault_invariants).
    s.faults_monotone_recall = false;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wfh_meltdown";
    s.title = "the WFH step under every fault class at once";
    s.world = quiet_world(102, 500, "US");  // identical to wfh_step
    s.world.calendar.push_back(wfh("US", Date{2020, 1, 15}, 0.65));
    s.dataset = kDataset;
    s.fault_scenario = "meltdown";
    s.precision_floor = 0.7;
    s.clean_counterpart = "wfh_step";
    // Meltdown includes skew faults, which relocate rather than destroy
    // evidence; the recall bound does not hold (see Scenario).
    s.faults_monotone_recall = false;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "quiet_calendar";
    s.title = "default world mix, quiet calendar: the negative control";
    s.world = quiet_world(107, 600, nullptr);
    // Keep the default world's measurement noise — outages and
    // renumbering still happen — but plant no human-activity events, so
    // any confirmed change is threshold drift by construction.
    s.world.diurnal_scale = 0.055;
    s.world.outage_rate_per_90d = 0.06;
    s.world.renumber_probability = 0.015;
    s.dataset = kDataset;
    s.expect_zero_truth = true;
    s.expect_zero_confirmed = true;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "dst_transition";
    s.title = "US DST spring-forward inside the window: must stay silent";
    s.world = quiet_world(151, 300, "US");
    sim::CountryLayerOverride dst;
    dst.code = "US";
    dst.dst = geo::DstPolicy::kNorthern;
    s.world.country_layers.push_back(std::move(dst));
    s.phase_shift_filter = true;
    // A full quarter so the 2020-03-08 spring-forward (and the hour it
    // shifts every local schedule by) sits mid-window with settled
    // baselines on both sides.  A one-hour phase shift must not read as
    // an activity change.
    s.dataset = "2020q1-ejnw";
    s.expect_zero_truth = true;
    s.expect_zero_confirmed = true;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "wfh_ramp";
    s.title = "WFH adoption ramped over ten days instead of a step";
    s.world = quiet_world(109, 500, "US");
    sim::Event e = wfh("US", Date{2020, 1, 12}, 0.65);
    // Spread per-block onsets uniformly over Jan 12-22 (all inside the
    // eligible-truth span) instead of the step's +-2-day jitter: the
    // gradual version of wfh_step, scored against per-block onsets.
    e.ramp_days = 10;
    s.world.calendar.push_back(std::move(e));
    s.dataset = kDataset;
    s.precision_floor = 0.8;
    s.recall_floor = 0.4;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "overlap_geo";
    s.title = "curfew and holiday overlapping in the Delhi gridcell";
    s.world = quiet_world(110, 600, "IN");
    s.world.calendar.push_back(curfew("IN", geo::GridCell::of(28.6, 77.2),
                                      Date{2020, 1, 10}, Date{2020, 1, 17},
                                      0.6));
    s.world.calendar.push_back(
        holiday("IN", Date{2020, 1, 14}, Date{2020, 1, 21}, 0.8));
    s.dataset = kDataset;
    // In-cell blocks that adopt both events carry four truth instants
    // within eleven days; the second onset moves residual attendance
    // from 0.15 to 0.08 (nearly invisible) and the first recovery is
    // masked by the still-active holiday, so recall is structurally
    // bounded well below the single-event scenarios.
    s.precision_floor = 0.6;
    s.recall_floor = 0.25;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "cgnat_fade";
    s.title = "CGNAT growth absorbs blocks: diurnality fades to gateways";
    s.world = quiet_world(111, 600, "US");
    sim::CountryLayerOverride cg;
    cg.code = "US";
    cg.cgnat_trend_per_year = 1.0;  // migrations spread over the horizon
    s.world.country_layers.push_back(std::move(cg));
    // Probe the full quarter over the default nine-month horizon.  A
    // mid-window CGNAT absorption strips the block's diurnality, so the
    // section 3.2.2 per-segment strictness gate (analysis::
    // kSegmentDays) sheds it from the change-sensitive set before the
    // detector ever sees it: the conversions are real but structurally
    // invisible.  The scenario therefore asserts the masking itself —
    // a healthy crop of planted conversions routed to
    // truth_outside_detection, and zero confirmed detections anywhere
    // (a fade must not surface as a spurious activity change on the
    // blocks that survive classification).
    s.dataset = "2020q1-ejnw";
    s.expect_zero_confirmed = true;
    s.truth_outside_floor = 10;  // measured: 16 masked conversions
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "multiyear_seasonal";
    s.title = "second January of a multi-year world: annual holiday recurs";
    s.world = quiet_world(112, 400, "US");
    s.world.horizon_start = time_of(2020, 1, 1);
    s.world.horizon_end = time_of(2021, 7, 1);
    sim::CountryLayerOverride hol;
    hol.code = "US";
    geo::AnnualHoliday h;
    h.name = "planted-annual";
    h.month = 1;
    h.day = 12;
    h.duration_days = 7;
    h.adoption = 0.9;
    h.residual_attendance = 0.08;
    hol.holidays.push_back(std::move(h));
    s.world.country_layers.push_back(std::move(hol));
    // Probe the SECOND year's instance: the 2020 recurrence is history
    // by the analysis window, so detection rests on the annual-holiday
    // materialization being correct across year boundaries.
    s.dataset = "2021m1-ejnw";
    // Like holiday_dip, the recovery edge of a week-long dip pairs up
    // with its own onset under the outage-discard heuristic, so a
    // third of the matched pairs are discarded before scoring; the
    // floors account for that structural recall ceiling.
    s.precision_floor = 0.7;
    s.recall_floor = 0.2;
    v.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "golden_mix";
    s.title = "the golden-digest world (real calendar): perf/accuracy anchor";
    s.world = sim::WorldConfig{};  // the bench_fleet reference world
    s.world.seed = 1;
    s.world.num_blocks = 2000;
    s.dataset = kDataset;
    // Default pipeline config, so the digest matches the perf gate's.
    s.additional_observations = false;
    v.push_back(std::move(s));
  }
  return v;
}

}  // namespace

const std::vector<Scenario>& catalog() {
  static const std::vector<Scenario> v = build_catalog();
  return v;
}

const Scenario* find_scenario(std::string_view name) {
  for (const auto& s : catalog()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace diurnal::validate
