// Path loss between an observer and a destination block.
//
// Most paths see only a small background loss rate.  The paper found one
// observer (w, sometimes c) probing roughly a quarter of Chinese
// destinations across a link with *diurnal congestive loss* of up to
// ~14% (section 3.3) — the failure mode 1-loss repair exists to fix,
// because diurnal loss masquerades as diurnal address usage.
#pragma once

#include <cstdint>

#include "net/ipv4.h"
#include "probe/observer.h"
#include "sim/block_profile.h"

namespace diurnal::probe {

struct LossModelConfig {
  double base_loss = 0.004;  ///< background random loss on healthy paths
  /// Fraction of Chinese/Moroccan destinations the congested observer
  /// reaches through the lossy link.
  double congested_destination_fraction = 0.25;
  double congested_peak_loss = 0.14;  ///< loss at the busiest hour
  char congested_observer = 'w';
  std::uint64_t seed = 0x10553ULL;
  bool enable_congestion = true;
};

/// Deterministic per-(observer, block, time) loss-rate model.
class LossModel {
 public:
  explicit LossModel(LossModelConfig config = {}) noexcept;

  /// True when this observer reaches this block over the congested link.
  bool path_congested(const ObserverSpec& obs,
                      const sim::BlockProfile& block) const noexcept;

  /// Probability that a probe (or its reply) is lost on a congested path
  /// at a destination-local hour (the diurnal congestion curve of section
  /// 3.3); an uncongested path loses config().base_loss.  The rate
  /// depends on time only through the local hour, so probe loops can
  /// tabulate all 24 values once per pass instead of evaluating the curve
  /// per probe.
  double congested_loss_at_hour(int local_hour) const noexcept {
    double busy = 0.15;
    if (local_hour >= 19) busy = 1.0;
    else if (local_hour >= 15) busy = 0.5;
    else if (local_hour >= 9) busy = 0.3;
    return config_.base_loss + config_.congested_peak_loss * busy;
  }

  const LossModelConfig& config() const noexcept { return config_; }

 private:
  LossModelConfig config_;
};

}  // namespace diurnal::probe
