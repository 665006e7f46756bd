#include "probe/loss_model.h"

#include "geo/countries.h"
#include "util/rng.h"

namespace diurnal::probe {

LossModel::LossModel(LossModelConfig config) noexcept : config_(config) {}

bool LossModel::path_congested(const ObserverSpec& obs,
                               const sim::BlockProfile& block) const noexcept {
  if (!config_.enable_congestion) return false;
  if (obs.code != config_.congested_observer) return false;
  const auto& code = geo::countries()[block.country].code;
  if (code != "CN" && code != "MA") return false;
  const std::uint64_t h =
      util::derive_seed(config_.seed, block.id.id(),
                        static_cast<std::uint64_t>(obs.code));
  return static_cast<double>(h >> 11) * 0x1.0p-53 <
         config_.congested_destination_fraction;
}

}  // namespace diurnal::probe
