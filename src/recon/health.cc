#include "recon/health.h"

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"
#include "recon/block_recon.h"
#include "util/rng.h"

namespace diurnal::recon {

std::vector<ObserverHealth> check_observers(
    const sim::World& world, const std::vector<probe::ObserverSpec>& observers,
    const HealthCheckConfig& config) {
  // Sample responsive blocks deterministically.
  std::vector<const sim::BlockProfile*> sample;
  util::Xoshiro256 rng(config.seed);
  const auto& blocks = world.blocks();
  std::size_t attempts = 0;
  while (static_cast<int>(sample.size()) < config.sample_blocks &&
         attempts < blocks.size() * 4) {
    ++attempts;
    const auto& b = blocks[rng.below(blocks.size())];
    if (b.eb_count >= 8) sample.push_back(&b);
  }

  // Per-(observer, block) reply rates.  A symmetric corruption barely
  // moves an observer's *average* rate (flips cancel near rate 0.5), so
  // health is judged by per-block disagreement with the other sites.
  std::vector<std::vector<double>> rates(
      observers.size(), std::vector<double>(sample.size(), 0.0));
  BlockObservationConfig single;
  single.loss = config.loss;
  single.window = config.window;
  single.one_loss_repair = false;
  for (std::size_t o = 0; o < observers.size(); ++o) {
    single.observers = {observers[o]};
    for (std::size_t bi = 0; bi < sample.size(); ++bi) {
      rates[o][bi] =
          observe_and_reconstruct(*sample[bi], single).mean_reply_rate;
    }
  }

  std::vector<ObserverHealth> out(observers.size());
  std::vector<double> others;
  for (std::size_t o = 0; o < observers.size(); ++o) {
    double total_dev = 0.0;
    double total_rate = 0.0;
    for (std::size_t bi = 0; bi < sample.size(); ++bi) {
      others.clear();
      for (std::size_t p = 0; p < observers.size(); ++p) {
        if (p != o) others.push_back(rates[p][bi]);
      }
      if (!others.empty()) {
        total_dev += std::abs(rates[o][bi] - analysis::median(others));
      }
      total_rate += rates[o][bi];
    }
    const double n = sample.empty() ? 1.0 : static_cast<double>(sample.size());
    out[o].code = observers[o].code;
    out[o].mean_reply_rate = total_rate / n;
    out[o].deviation = total_dev / n;
    out[o].healthy = out[o].deviation <= config.max_deviation;
  }
  return out;
}

}  // namespace diurnal::recon
