#include "core/classify.h"

#include <array>
#include <cstddef>
#include <stdexcept>

namespace diurnal::core {

namespace {

// A block's place in the funnel before any analysis: a non-responsive
// block stops here.  The evidence floor annotates, never decides.
BlockClassification funnel_entry(bool responsive, double evidence_fraction,
                                 const ClassifierOptions& opt) {
  BlockClassification c;
  c.responsive = responsive;
  c.evidence_fraction = evidence_fraction;
  c.low_confidence = evidence_fraction < opt.min_evidence_fraction;
  return c;
}

double samples_per_day(std::int64_t step) {
  return static_cast<double>(util::kSecondsPerDay) / static_cast<double>(step);
}

// Table 2's verdict from the two tests' details: change-sensitive =
// diurnal and wide swing.
void set_verdict(BlockClassification& c) {
  c.diurnal = c.diurnal_detail.diurnal;
  c.wide_swing = c.swing_detail.wide;
  c.change_sensitive = c.diurnal && c.wide_swing;
}

}  // namespace

BlockClassification classify_block(std::span<const double> counts,
                                   util::SimTime start, std::int64_t step,
                                   bool responsive, double evidence_fraction,
                                   const ClassifierOptions& opt,
                                   analysis::BlockAnalyzer& az) {
  BlockClassification c = funnel_entry(responsive, evidence_fraction, opt);
  if (!c.responsive) return c;
  c.diurnal_detail = az.diurnal(counts, samples_per_day(step), opt.diurnal);
  c.swing_detail = az.swing(counts, start, step, opt.swing);
  set_verdict(c);
  return c;
}

void classify_blocks_batch(std::span<BatchClassifyJob> jobs,
                           const ClassifierOptions& opt,
                           analysis::BatchAnalyzer& baz,
                           analysis::BlockAnalyzer& az) {
  constexpr std::size_t kMax = analysis::BatchAnalyzer::kMaxLanes;
  if (jobs.size() > kMax) {
    throw std::invalid_argument("classify_blocks_batch: too many jobs");
  }
  // The funnel entry is per-job; only responsive jobs reach the
  // analysis chain.
  for (auto& job : jobs) {
    *job.out = funnel_entry(job.responsive, job.evidence_fraction, opt);
  }

  // Batched diurnality for equal-shape responsive jobs.
  std::array<analysis::DiurnalResult, kMax> results;
  analysis::for_each_shape_batch(
      jobs, [](const BatchClassifyJob& job) { return job.responsive; },
      [&](std::span<const std::span<const double>> lanes,
          std::span<const std::size_t> job_of_lane) {
        baz.diurnal(lanes, samples_per_day(jobs[job_of_lane[0]].step),
                    opt.diurnal,
                    std::span<analysis::DiurnalResult>(results.data(),
                                                       lanes.size()));
        for (std::size_t j = 0; j < lanes.size(); ++j) {
          jobs[job_of_lane[j]].out->diurnal_detail = results[j];
        }
      });

  // Swing gate: scalar per job (its day-bucketed quantile scan is
  // already cheap and heavily branch-dependent).
  for (auto& job : jobs) {
    if (!job.responsive) continue;
    BlockClassification& c = *job.out;
    c.swing_detail = az.swing(job.counts, job.start, job.step, opt.swing);
    set_verdict(c);
  }
}

BlockClassification classify_block(const recon::ReconResult& recon,
                                   const ClassifierOptions& opt) {
  thread_local analysis::BlockAnalyzer az;
  return classify_block(recon.counts.span(), recon.counts.start(),
                        recon.counts.step(), recon.responsive,
                        recon.evidence_fraction, opt, az);
}

void FunnelCounts::add(const BlockClassification& c) noexcept {
  ++routed;
  if (c.low_confidence) ++low_confidence;
  if (!c.responsive) {
    ++not_responsive;
    return;
  }
  ++responsive;
  if (c.diurnal) ++diurnal; else ++not_diurnal;
  if (c.wide_swing) ++wide_swing; else ++narrow_swing;
  if (c.change_sensitive) ++change_sensitive; else ++not_change_sensitive;
}

}  // namespace diurnal::core
