// Observer-health check (paper section 2.7): analyze each observer
// independently and compare results across sites.  This is the test
// that exposed the hardware problems at sites c and g in 2020 and
// prompted their removal from the 2020 analyses.
#pragma once

#include <vector>

#include "probe/loss_model.h"
#include "probe/observer.h"
#include "probe/prober.h"
#include "sim/world.h"

namespace diurnal::recon {

struct ObserverHealth {
  char code = '?';
  double mean_reply_rate = 0.0;  ///< across the sampled blocks
  /// Mean over sampled blocks of |this observer's per-block reply rate -
  /// median of the other observers' rates for the same block|.
  double deviation = 0.0;
  bool healthy = true;
};

struct HealthCheckConfig {
  /// Number of responsive blocks to sample for the cross-comparison.
  int sample_blocks = 60;
  /// An observer whose mean per-block disagreement with the other sites
  /// exceeds this is flagged unhealthy.
  double max_deviation = 0.10;
  probe::ProbeWindow window{};
  probe::LossModel loss{};
  std::uint64_t seed = 7;
};

/// Cross-compares observers over a random sample of responsive blocks
/// and flags outliers.  An observer's reply rate on a block is the
/// mean_reply_rate of observe_and_reconstruct() with that observer
/// alone and no 1-loss repair: its raw stream's positives over probes.
std::vector<ObserverHealth> check_observers(
    const sim::World& world, const std::vector<probe::ObserverSpec>& observers,
    const HealthCheckConfig& config);

}  // namespace diurnal::recon
