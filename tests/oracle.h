// The reference bodies the bitwise tests hold production to.
//
// Analysis: the engine runs the batched tier (core::BatchDetector,
// core::classify_blocks_batch); these are the same rules run one block
// at a time through the span kernels (analysis::BlockAnalyzer), or, for
// the swing rule, over precomputed per-day stats.
//
// Observation: the engine observes a block through recon::BlockStream,
// which interleaves probing, repair, merging and reconstruction round by
// round.  These are the same four steps run whole-window, one after the
// other: a full-window probe, the whole-stream 1-loss repair, a min-scan
// k-way merge and one BlockReconState pass.
//
// Test-only: nothing under src/ calls them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/block_analyzer.h"
#include "analysis/swing.h"
#include "core/detect.h"
#include "probe/prober.h"
#include "recon/reconstruct.h"
#include "recon/repair.h"
#include "sim/block_profile.h"
#include "util/timeseries.h"

namespace diurnal::oracle {

/// The detection stage (STL trend -> z-score -> CUSUM -> change
/// extraction and outage filters) on one series through the scalar
/// analyzer.  `changes` is cleared and refilled; series the detector
/// rejects (core::detection_period() == 0) yield none.
void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const core::DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<core::DetectedChange>& changes);

/// The 4-of-7 wide-day rule over per-day stats.  Days without samples
/// may be absent: windows are calendar windows on a dense day axis.
analysis::SwingResult classify_swing(const std::vector<util::DayStats>& days,
                                     const analysis::SwingOptions& opt = {});

/// One observer's raw stream over the whole window (no faults, no
/// repair; empty for a block with no targets): round_prober_begin plus
/// one resume to the window end, through a fresh scratch.
probe::ObservationVec probe_block(const sim::BlockProfile& block,
                                  const probe::ObserverSpec& observer,
                                  const probe::LossModel& loss,
                                  probe::ProbeWindow window,
                                  const probe::ProberConfig& config = {});

/// Applies 1-loss repair in place to one observer's whole time-ordered
/// stream: each per-address 101 becomes 111.
recon::RepairStats one_loss_repair(probe::ObservationVec& stream);

/// K-way-merges per-observer streams into `out` (replaced, not appended).
/// Total order: (rel_time, source-stream index) — ties keep the probe
/// from the lowest-index stream first, so the merged stream is a stable,
/// reproducible function of its inputs regardless of stream count.
void merge_observations_into(const std::vector<probe::ObservationVec>& streams,
                             probe::ObservationVec& out);

/// Reconstructs a block's activity from a merged, time-ordered
/// observation stream: one full pass of the BlockReconState machine.
recon::ReconResult reconstruct(const probe::ObservationVec& merged,
                               int eb_count, probe::ProbeWindow window,
                               const recon::ReconOptions& opt = {});

}  // namespace diurnal::oracle
