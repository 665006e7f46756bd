// Multi-block counterpart of BlockAnalyzer: runs the analysis chain
// for up to kMaxBatchLanes equal-length block series at once through
// the SoA kernels in analysis/batch.h.
//
// A BatchAnalyzer owns one Workspace plus persistent SoA and row
// buffers, so a warm analyzer processes batch after batch with zero
// steady-state heap traffic — the same contract as BlockAnalyzer, one
// instance per thread.  Every per-lane result is bit-identical to the
// scalar chain on that lane's series (the fleet digest gates on this).
//
// Views returned by trend()/z()/changes() are valid until the next
// run_detection_chain() on this analyzer.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "analysis/batch.h"
#include "analysis/cusum.h"
#include "analysis/diurnal_test.h"
#include "analysis/stl.h"
#include "analysis/workspace.h"

namespace diurnal::analysis {

class BatchAnalyzer {
 public:
  static constexpr std::size_t kMaxLanes = kMaxBatchLanes;

  BatchAnalyzer() = default;
  BatchAnalyzer(const BatchAnalyzer&) = delete;
  BatchAnalyzer& operator=(const BatchAnalyzer&) = delete;

  /// The arena backing this analyzer.
  Workspace& workspace() noexcept { return ws_; }

  /// Runs STL -> z-score(trend) -> CUSUM for every lane.  All series
  /// must share one length n >= 2 * stl.period (callers batch
  /// equal-length blocks; ragged tails are narrower batches).
  void run_detection_chain(std::span<const std::span<const double>> series,
                           const StlOptions& stl, const CusumOptions& cusum);

  /// Lanes loaded by the last run_detection_chain().
  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t samples() const noexcept { return samples_; }

  /// Per-lane contiguous views of the last chain's outputs.
  std::span<const double> trend(std::size_t lane) const noexcept;
  std::span<const double> z(std::size_t lane) const noexcept;
  std::span<const ChangePoint> changes(std::size_t lane) const noexcept;

  /// Batched diurnality test: out[j] receives lane j's result
  /// (out.size() >= series.size()).  Independent of the detection
  /// chain's buffers.
  void diurnal(std::span<const std::span<const double>> series,
               double samples_per_day, const DiurnalOptions& opt,
               std::span<DiurnalResult> out);

 private:
  Workspace ws_;
  Workspace::Vec y_soa_;
  Workspace::Vec trend_soa_;
  Workspace::Vec seasonal_soa_;
  Workspace::Vec residual_soa_;
  Workspace::Vec z_soa_;
  Workspace::Vec trend_rows_;  ///< lane-major: lane j at [j*n, (j+1)*n)
  Workspace::Vec z_rows_;
  std::array<OnlineCusum, kMaxLanes> cusum_;
  std::size_t lanes_ = 0;
  std::size_t samples_ = 0;
};

/// Groups the jobs for which keep(job) holds into batches of one shape
/// (equal series length and step: the analyzer's per-batch contract)
/// and calls run(lanes, job_of_lane) once per batch, where lanes[j] is
/// the series of jobs[job_of_lane[j]].  Batches come in order of their
/// first job, lanes in job order; ragged shapes simply run as narrower
/// batches.  A job exposes `counts` (its series) and `step`; at most
/// kMaxLanes jobs.  Allocates nothing.
template <class Job, class Keep, class Run>
void for_each_shape_batch(std::span<Job> jobs, Keep&& keep, Run&& run) {
  constexpr std::size_t kMax = BatchAnalyzer::kMaxLanes;
  std::array<bool, kMax> done{};
  std::array<std::span<const double>, kMax> lanes;
  std::array<std::size_t, kMax> job_of_lane;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (done[i] || !keep(jobs[i])) continue;
    std::size_t width = 0;
    for (std::size_t k = i; k < jobs.size(); ++k) {
      if (done[k] || !keep(jobs[k])) continue;
      if (jobs[k].counts.size() == jobs[i].counts.size() &&
          jobs[k].step == jobs[i].step) {
        lanes[width] = jobs[k].counts;
        job_of_lane[width] = k;
        done[k] = true;
        ++width;
      }
    }
    run(std::span<const std::span<const double>>(lanes.data(), width),
        std::span<const std::size_t>(job_of_lane.data(), width));
  }
}

}  // namespace diurnal::analysis
