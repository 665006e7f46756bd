#include "core/pipeline.h"

#include "core/streaming.h"

namespace diurnal::core {

// One pipeline implementation: the batch entry point is the streaming
// engine driven start-to-finish (see core/streaming.h for the staging
// and the equivalence contract).
FleetResult run_fleet(const sim::World& world, const FleetConfig& config) {
  StreamingFleet fleet(world, config);
  return fleet.run_to_completion();
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
