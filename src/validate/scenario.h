// The planted-truth scenario catalog.
//
// Each Scenario is a complete, seeded end-to-end experiment: a world
// whose event calendar is planted by the scenario itself (so the ground
// truth is known exactly), the dataset window to probe, an optional
// observer-fault scenario, and the accuracy expectations the harness
// gates on.  The catalog spans the event classes the paper validates —
// a WFH step, a week-long holiday dip, a geo-scoped curfew — plus the
// negatives (clean/quiet worlds that must stay silent), the
// outage-pair-discard stressor, faulted variants of the WFH step, and
// the golden-digest world that anchors accuracy runs to the perf gate.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/world.h"
#include "validate/matcher.h"

namespace diurnal::validate {

struct Scenario {
  std::string name;
  std::string title;  ///< one-line description for --list and docs

  sim::WorldConfig world;               ///< includes the planted calendar
  std::string dataset = "2020m1-ejnw";  ///< analysis-window abbreviation
  std::string fault_scenario = "none";  ///< fault::scenario() name

  /// Probe with the section 2.8 additional-observations site (6-hour
  /// full-block refresh).  Without it, adaptive probing alone produces
  /// two measurement artifacts that register as false activity changes:
  /// a days-long discovery ramp from the all-unknown initial state (a
  /// spurious up-trend) and a slow coverage decay as the observers'
  /// stop-on-first-positive cursors cluster behind active addresses (a
  /// spurious down-trend).  Accuracy scenarios therefore probe the way
  /// the paper's activity datasets do; golden_mix turns this off to
  /// stay bit-identical with the perf-gate digest.
  bool additional_observations = true;

  /// Enable the detector's raw-volume corroboration cross-check (the
  /// DST/timezone filter, DetectorOptions::phase_shift_filter).  Off by
  /// default so pre-existing scenarios keep their exact scorecards; DST
  /// scenarios turn it on, since a clock shift perturbs the globally
  /// fitted STL trend without moving any real activity volume.
  bool phase_shift_filter = false;

  // Expectations the harness enforces on every run (0 disables a floor).
  bool expect_zero_truth = false;      ///< negative control: nothing planted
  bool expect_zero_confirmed = false;  ///< and nothing may be detected
  double precision_floor = 0.0;        ///< undefined precision passes
  double recall_floor = 0.0;
  /// Minimum planted-truth instants that must land on blocks the
  /// classifier rejected (truth_outside_detection).  Masking scenarios
  /// use this to prove the planted effect is real but structurally
  /// invisible: a CGNAT fade strips a block's diurnality mid-window, so
  /// the section 3.2.2 per-segment strictness gate sheds it from the
  /// change-sensitive set before detection ever sees it.
  int truth_outside_floor = 0;
  /// Clean counterpart for faulted variants: recall must not exceed the
  /// counterpart's (faults can only lose evidence, never invent onsets).
  std::string clean_counterpart;
  /// Enforce that recall bound.  It only holds for evidence-destroying
  /// faults (dropout, bursts, truncate): skew-class faults *relocate*
  /// evidence in time, which can push an alarm across the edge of the
  /// quantized +-4-day window in either direction — occasionally turning
  /// a clean-run miss into a faulted-run match.  Scenarios whose fault
  /// mix includes skew (meltdown) turn this off and rely on the
  /// precision floor alone.
  bool faults_monotone_recall = true;
};

/// The full catalog, in run order (clean scenarios precede the faulted
/// variants that reference them).
const std::vector<Scenario>& catalog();

/// Lookup by name; nullptr if unknown.
const Scenario* find_scenario(std::string_view name);

}  // namespace diurnal::validate
