#include "recon/block_recon.h"

#include "recon/stream.h"

namespace diurnal::recon {

// There is one pipeline implementation: a whole-window pass is a stream
// that ingests everything before finalizing.
ReconResult observe_and_reconstruct(const sim::BlockProfile& block,
                                    const BlockObservationConfig& config) {
  thread_local probe::ProbeScratch scratch;
  thread_local BlockStream stream;
  thread_local DegradedReconStats result;
  stream.begin(block, config, scratch);
  stream.finalize_stats(result);
  return ReconResult(result.recon, stream.series());
}

}  // namespace diurnal::recon
