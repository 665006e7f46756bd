// Per-block observation driver: probes a block from a set of observers,
// optionally injects observer faults (the degraded-mode layer), applies
// 1-loss repair per observer, merges the streams (paper section 2.7),
// and reconstructs the active-address series.
#pragma once

#include <string>
#include <vector>

#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "probe/loss_model.h"
#include "probe/observer.h"
#include "probe/prober.h"
#include "recon/reconstruct.h"
#include "sim/block_profile.h"

namespace diurnal::recon {

struct BlockObservationConfig {
  std::vector<probe::ObserverSpec> observers;  ///< e.g. sites_from_string("ejnw")
  probe::LossModel loss{};
  probe::ProbeWindow window{};
  probe::ProberConfig prober{};  ///< kind kTrinocular unless overridden
  bool one_loss_repair = true;
  /// Add the section-2.8 additional-observations prober on top of the
  /// regular observers.
  bool additional_observations = false;
  /// Fault plan applied to each observer's stream before repair; null or
  /// empty means a healthy fleet (bit-identical to no fault layer).
  const fault::FaultPlan* faults = nullptr;
  ReconOptions recon{};
};

/// Probes + repairs + merges + reconstructs one block over the whole
/// window: one recon::BlockStream pass, begun and finalized.
ReconResult observe_and_reconstruct(const sim::BlockProfile& block,
                                    const BlockObservationConfig& config);

/// Degraded-mode statistics: a reconstruction's statistics (its series
/// externalized, e.g. to core::SeriesStore rows) plus what each observer
/// actually delivered (stream spans and fault-injection stats), the raw
/// material of the fleet's DegradationReport.  Reused across blocks
/// like the scratch buffers.
struct DegradedReconStats {
  ReconStats recon;
  std::vector<fault::ObserverStreamInfo> observers;
};

}  // namespace diurnal::recon
