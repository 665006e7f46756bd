#include "recon/block_recon.h"

#include "recon/stream.h"

namespace diurnal::recon {

// The batch entry points run the streaming pipeline start-to-finish:
// there is one pipeline implementation, and a whole-window pass is just
// a stream that ingests everything before finalizing.
ReconResult observe_and_reconstruct(const sim::BlockProfile& block,
                                    const BlockObservationConfig& config,
                                    probe::ProbeScratch& scratch) {
  thread_local BlockStream stream;
  thread_local DegradedReconStats result;
  stream.begin(block, config, scratch);
  stream.finalize_stats(result);
  return ReconResult(result.recon, stream.series());
}

ReconResult observe_and_reconstruct(const sim::BlockProfile& block,
                                    const BlockObservationConfig& config) {
  return observe_and_reconstruct(block, config, probe::ProbeScratch::local());
}

MultiReconResult observe_and_reconstruct_detailed(
    const sim::BlockProfile& block, const BlockObservationConfig& config) {
  MultiReconResult out;
  // Each observer alone is the same pipeline over a one-observer config.
  BlockObservationConfig single = config;
  single.additional_observations = false;
  for (const auto& spec : config.observers) {
    single.observers = {spec};
    out.per_observer.push_back(
        PerObserverRecon{spec.code, observe_and_reconstruct(block, single)});
  }
  if (config.additional_observations) {
    single.observers.clear();
    single.additional_observations = true;
    out.per_observer.push_back(
        PerObserverRecon{probe::additional_observer().code,
                         observe_and_reconstruct(block, single)});
  }
  out.combined = observe_and_reconstruct(block, config);
  return out;
}

}  // namespace diurnal::recon
