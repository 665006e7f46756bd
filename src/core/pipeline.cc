#include "core/pipeline.h"

#include "core/streaming.h"

namespace diurnal::core {

recon::BlockObservationConfig FleetConfig::observation(
    const DatasetSpec& ds) const {
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.loss = probe::LossModel(loss);
  oc.window = ds.window();
  oc.prober.kind =
      ds.survey ? probe::ProberKind::kSurvey : probe::ProberKind::kTrinocular;
  oc.one_loss_repair = one_loss_repair;
  oc.additional_observations = additional_observations;
  oc.faults = &faults;
  oc.recon = recon;
  return oc;
}

// One pipeline implementation: the batch entry point is the streaming
// engine driven start-to-finish (see core/streaming.h for the staging
// and the equivalence contract).
FleetResult run_fleet(const sim::World& world, const FleetConfig& config) {
  StreamingFleet fleet(world, config);
  return fleet.run_to_completion();
}

BlockOutcome analyze_block(const recon::ReconResult& recon,
                           const ClassifierOptions& classifier,
                           const DetectorOptions& detector,
                           bool run_detection) {
  const util::TimeSeries& counts = recon.counts;
  BlockOutcome out;
  analysis::BatchAnalyzer baz;
  BatchClassifyJob job{counts.span(),    counts.start(),
                       counts.step(),    recon.responsive,
                       recon.evidence_fraction, &out.cls};
  classify_blocks_batch(std::span<BatchClassifyJob>(&job, 1), classifier, baz);
  if (run_detection && out.cls.change_sensitive) {
    BatchDetector det(detector, 1);  // one lane: enqueue runs the job
    det.enqueue(counts.span(), counts.start(), counts.step(), &out.changes);
  }
  annotate_low_evidence(out.changes, recon.evidence_fraction, recon.gaps,
                        kMinEvidenceFraction);
  return out;
}

// A change whose evidence window overlaps a coverage gap (or whose
// whole reconstruction fell below the confidence floor) may be
// observers failing rather than humans moving.  One day of slack on
// each side, because STL smoothing and CUSUM change-dating can land the
// excursion boundary a few samples off the gap edge.
void annotate_low_evidence(std::vector<DetectedChange>& changes,
                           double evidence_fraction,
                           std::span<const recon::CoverageGap> gaps,
                           double evidence_floor) {
  if (changes.empty()) return;
  const bool all_low = evidence_fraction < evidence_floor;
  constexpr util::SimTime kSlack = util::kSecondsPerDay;
  for (auto& c : changes) {
    if (all_low) {
      c.low_evidence = true;
      continue;
    }
    for (const auto& g : gaps) {
      if (c.start - kSlack < g.end && c.end + kSlack > g.start) {
        c.low_evidence = true;
        break;
      }
    }
  }
}

void add_changes(ChangeAggregator& agg,
                 std::span<const sim::BlockProfile> blocks,
                 std::span<const BlockOutcome> outcomes) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& out = outcomes[i];
    if (!out.cls.change_sensitive) continue;
    const auto& b = blocks[i];
    agg.add_block(b.cell(), geo::countries()[b.country].continent, out.changes);
  }
}

ChangeAggregator aggregate_changes(const sim::World& world,
                                   const FleetResult& result,
                                   const FleetConfig& config) {
  const auto window = config.dataset.window();
  ChangeAggregator agg(window.start, window.end);
  add_changes(agg, world.blocks(), result.outcomes);
  return agg;
}

}  // namespace diurnal::core
