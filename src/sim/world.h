// The synthetic Internet: a deterministic population of /24 blocks with
// ground-truth activity, locations, and a dated event calendar.
//
// This is the substitute for the paper's 5.2M-block Trinocular target
// list (see DESIGN.md): the probers sample it, the pipeline never sees
// anything but probe replies, and the validation benches score
// detections against its ground truth.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/geodb.h"
#include "sim/block_profile.h"
#include "sim/country_layers.h"
#include "sim/events.h"
#include "util/rng.h"
#include "util/timeseries.h"

namespace diurnal::sim {

struct WorldConfig {
  std::uint64_t seed = 1;

  /// Number of routed /24 blocks to generate (the paper has ~11.1M
  /// routed; benches typically scale 1:200 .. 1:1000).
  int num_blocks = 20'000;

  /// Fraction of routed blocks that ever respond (paper: 5.17M / 11.1M).
  double responsive_fraction = 0.465;

  /// Scales each country's diurnal-visible fraction into the probability
  /// that a responsive block is a diurnal category (offices/universities/
  /// public dynamic pools).  0.055 plus the mixed category's contribution
  /// lands near the paper's ~7.7% diurnal share of responsive blocks
  /// given the registry's country weights.
  double diurnal_scale = 0.055;

  /// Expected whole-block outages per block per 90 days.
  double outage_rate_per_90d = 0.06;

  /// Probability a block is renumbered once within the horizon.
  double renumber_probability = 0.015;

  /// Probability that a human-populated block's occupancy window opens
  /// (and, independently, closes) inside the horizon — the section 3.2.2
  /// duration effect.  Validation scenarios that need a world whose only
  /// activity changes are the planted calendar events set this to 0.
  double occupancy_churn = 0.08;

  /// Freeze the device population: no 21-day epoch churn (dormancy or
  /// schedule drift) — every device keeps its epoch-0 schedule for the
  /// whole horizon.  Validation negative controls set this so the only
  /// multi-day activity shifts in the world are planted events; real
  /// populations churn (the paper's duration effect), so it defaults
  /// off.
  bool stable_population = false;

  /// Simulated horizon (events and outages are materialized within it).
  util::SimTime horizon_start = 0;                              // 2019-10-01
  util::SimTime horizon_end = util::time_of(2020, 7, 1);

  /// Include the named case-study blocks (USC office and VPN, UAE, and a
  /// renumbering example) used by the figure benches.
  bool include_special_blocks = true;

  /// When set, every generated block is placed in this country
  /// (regional case studies build dense single-country worlds cheaply).
  std::optional<std::string> only_country;

  /// Event calendar; default_calendar() if empty (unless quiet_calendar).
  std::vector<Event> calendar;

  /// Keep an empty calendar empty instead of substituting
  /// default_calendar(): a world with no events whatsoever, so any
  /// detected change is by construction an artifact of the measurement
  /// (used by fault-injection tests to prove observer dropout is never
  /// misread as a WFH onset).
  bool quiet_calendar = false;

  /// Per-country layer overrides (DESIGN §12): adoption/CGNAT, network
  /// ops multipliers, DST policy, recurring holidays, secular drift.
  /// Empty (the default) resolves to exactly the registry scalars —
  /// the bitwise-equivalence contract for the golden digest.
  std::vector<CountryLayerOverride> country_layers;
};

/// Deterministically generated world.
class World {
 public:
  explicit World(WorldConfig config);

  const WorldConfig& config() const noexcept { return config_; }
  const std::vector<Event>& calendar() const noexcept { return config_.calendar; }

  const std::vector<BlockProfile>& blocks() const noexcept { return blocks_; }

  /// Lookup by id; nullptr if unknown.
  const BlockProfile* find(net::BlockId id) const;

  /// Geolocation database with the blocks' true locations.
  const geo::GeoDatabase& geodb() const noexcept { return geodb_; }

  /// Ground-truth active-address series for one block sampled every
  /// `step` seconds over [t0, t1).
  util::TimeSeries truth_series(const BlockProfile& block, util::SimTime t0,
                                util::SimTime t1, std::int64_t step) const;

  // Named case-study blocks (valid when include_special_blocks).
  net::BlockId usc_office_block() const noexcept { return usc_office_; }
  net::BlockId usc_vpn_block() const noexcept { return usc_vpn_; }
  net::BlockId uae_case_block() const noexcept { return uae_case_; }
  net::BlockId renumber_case_block() const noexcept { return renumber_case_; }

 private:
  void generate();

  WorldConfig config_;
  std::vector<BlockProfile> blocks_;
  std::unordered_map<net::BlockId, std::size_t> index_;
  geo::GeoDatabase geodb_;
  net::BlockId usc_office_{};
  net::BlockId usc_vpn_{};
  net::BlockId uae_case_{};
  net::BlockId renumber_case_{};
};

}  // namespace diurnal::sim
