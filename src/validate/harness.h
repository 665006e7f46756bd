// Scenario execution: one catalog entry -> full pipeline -> scorecard.
//
// Both fleet drives are supported so accuracy can gate the streaming
// engine too: the batch drive wraps core::run_fleet, the streaming
// drive chops the window into one-day epochs through
// core::StreamingFleet and finalizes.  The two must produce identical
// scorecards AND identical fleet digests for every scenario — that is
// the harness's own metamorphic gate, enforced by diurnal_validate and
// tests/test_validate.cc.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "validate/scenario.h"
#include "validate/scorecard.h"

namespace diurnal::validate {

enum class Drive { kBatch, kStreaming };

/// What one scenario run produced.
struct ScenarioRun {
  Scorecard score;
  std::uint64_t digest = 0;  ///< core::fleet_digest of the result
  core::FunnelCounts funnel{};
};

/// Runs a scenario end-to-end on a prebuilt world (must match
/// s.world).  threads 0 = hardware concurrency.  `explain`, when
/// non-null, collects per-block diagnostics (see ExplainEntry).
ScenarioRun run_scenario(const Scenario& s, const sim::World& world,
                         Drive drive, int threads = 0,
                         std::vector<ExplainEntry>* explain = nullptr);

/// Violations of the scenario's own expectations (zero-truth /
/// zero-confirmed controls, precision/recall floors).  Empty = pass.
std::vector<std::string> check_expectations(const Scenario& s,
                                            const ScenarioRun& run);

/// Fault-metamorphic invariants of a faulted variant against its clean
/// counterpart run: faults may only remove blocks from the scored set
/// (never add truth), must not push precision below the scenario's
/// floor, and — when faults_monotone_recall is set — may only lower
/// recall, never raise it.
std::vector<std::string> check_fault_invariants(const Scenario& faulted,
                                                const ScenarioRun& run,
                                                const ScenarioRun& clean_run);

}  // namespace diurnal::validate
