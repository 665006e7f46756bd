#include "validate/harness.h"

#include <algorithm>
#include <cstdio>

#include "core/digest.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"

namespace diurnal::validate {

namespace {

core::FleetConfig fleet_config(const Scenario& s, int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset(s.dataset);
  fc.additional_observations = s.additional_observations;
  fc.detector.phase_shift_filter = s.phase_shift_filter;
  fc.threads = threads;
  if (s.fault_scenario != "none" && !s.fault_scenario.empty()) {
    fc.faults = fault::scenario(s.fault_scenario, fc.dataset.window());
  }
  return fc;
}

std::string pct(std::optional<double> v) {
  if (!v) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", *v * 100.0);
  return buf;
}

}  // namespace

ScenarioRun run_scenario(const Scenario& s, const sim::World& world,
                         Drive drive, int threads,
                         std::vector<ExplainEntry>* explain) {
  const auto fc = fleet_config(s, threads);
  core::FleetResult fleet;
  if (drive == Drive::kBatch) {
    fleet = core::run_fleet(world, fc);
  } else {
    core::StreamingFleet engine(world, fc);
    const std::int64_t epoch = util::kSecondsPerDay;
    for (util::SimTime t = engine.window_start() + epoch;; t += epoch) {
      const auto bounded = std::min(t, engine.window_end());
      engine.advance_to(bounded);
      if (bounded == engine.window_end()) break;
    }
    fleet = engine.finalize();
  }

  ScenarioRun run;
  run.digest = core::fleet_digest(fleet);
  run.funnel = fleet.funnel;
  run.score = score_fleet(world, fleet, fc.dataset.window(), explain);
  return run;
}

std::vector<std::string> check_expectations(const Scenario& s,
                                            const ScenarioRun& run) {
  std::vector<std::string> out;
  const auto& c = run.score;
  if (s.expect_zero_truth && c.truth_total() + c.truth_outside_detection > 0) {
    out.push_back(s.name + ": expected zero planted truth, found " +
                  std::to_string(c.truth_total() + c.truth_outside_detection));
  }
  if (s.expect_zero_confirmed &&
      c.true_positive() + c.false_positive + c.low_evidence_excluded > 0) {
    out.push_back(s.name + ": negative control detected " +
                  std::to_string(c.true_positive() + c.false_positive) +
                  " confirmed change(s) (+" +
                  std::to_string(c.low_evidence_excluded) + " low-evidence)");
  }
  if (s.precision_floor > 0.0) {
    const auto p = c.precision();
    if (p && *p < s.precision_floor) {
      out.push_back(s.name + ": precision " + pct(p) + " below floor " +
                    pct(s.precision_floor));
    }
  }
  if (s.recall_floor > 0.0) {
    const auto r = c.recall();
    if (!r || *r < s.recall_floor) {
      out.push_back(s.name + ": recall " + pct(r) + " below floor " +
                    pct(s.recall_floor));
    }
  }
  if (s.truth_outside_floor > 0 &&
      c.truth_outside_detection < s.truth_outside_floor) {
    out.push_back(s.name + ": only " +
                  std::to_string(c.truth_outside_detection) +
                  " truth instant(s) outside detection, floor " +
                  std::to_string(s.truth_outside_floor));
  }
  return out;
}

std::vector<std::string> check_fault_invariants(const Scenario& faulted,
                                                const ScenarioRun& run,
                                                const ScenarioRun& clean_run) {
  std::vector<std::string> out;
  // Observer faults can only degrade blocks out of the scored set, never
  // add to it: the worlds are seeded identically, so more scored truth
  // under faults means the harness scored blocks it should not have.
  if (run.score.truth_total() > clean_run.score.truth_total()) {
    out.push_back(faulted.name + ": faulted run scored " +
                  std::to_string(run.score.truth_total()) +
                  " truth instance(s), clean counterpart only " +
                  std::to_string(clean_run.score.truth_total()) +
                  " (faults cannot add scored blocks)");
  }
  const auto rf = run.score.recall();
  const auto rc = clean_run.score.recall();
  if (faulted.faults_monotone_recall && rf && rc && *rf > *rc) {
    out.push_back(faulted.name + ": faulted recall " + pct(rf) +
                  " exceeds clean counterpart's " + pct(rc) +
                  " (faults cannot create evidence)");
  }
  if (faulted.precision_floor > 0.0) {
    const auto p = run.score.precision();
    if (p && *p < faulted.precision_floor) {
      out.push_back(faulted.name + ": faulted precision " + pct(p) +
                    " below floor " + pct(faulted.precision_floor));
    }
  }
  return out;
}

}  // namespace diurnal::validate
