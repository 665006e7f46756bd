#include "sim/world.h"

#include "sim/world_slice.h"

namespace diurnal::sim {

using util::SimTime;

// World is the fully materialized universe: one BlockGenerator pass
// over every index.  All generation logic lives in world_slice.cc so a
// shard scheduler materializing lazy slices is bitwise-identical to
// this loop by construction (tests/test_shard.cc pins it).
World::World(WorldConfig config) : config_(std::move(config)) { generate(); }

const BlockProfile* World::find(net::BlockId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &blocks_[it->second];
}

void World::generate() {
  const BlockGenerator gen(config_);
  config_ = gen.config();  // default calendar resolved
  usc_office_ = gen.usc_office_block();
  usc_vpn_ = gen.usc_vpn_block();
  uae_case_ = gen.uae_case_block();
  renumber_case_ = gen.renumber_case_block();

  const std::size_t total = gen.total_blocks();
  blocks_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) blocks_.push_back(gen.make(i));

  index_.reserve(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    index_[blocks_[i].id] = i;
    const auto& b = blocks_[i];
    geodb_.add(b.id, geo::GeoRecord{b.lat, b.lon, b.country});
  }
}

util::TimeSeries World::truth_series(const BlockProfile& block, SimTime t0,
                                     SimTime t1, std::int64_t step) const {
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>((t1 - t0) / step + 1));
  for (SimTime t = t0; t < t1; t += step) {
    values.push_back(static_cast<double>(active_count(block, t)));
  }
  return util::TimeSeries(t0, step, std::move(values));
}

}  // namespace diurnal::sim
