// Country and continent registry for the synthetic world.
//
// The paper's coverage analysis (sections 3.5, 4.1) groups blocks by
// country and continent; our world generator draws block locations from
// this registry with weights that mimic the paper's observed skew
// (change-sensitive blocks concentrated in Asia and Eastern Europe,
// always-on NAT hiding most of North America and Western Europe).
//
// Each country is described by a *layer stack* (DESIGN §12) rather than
// a flat struct: demographics (where blocks live and how many), adoption
// (public dynamic IPv4 vs CGNAT), network ops (renumbering cadence and
// outage base rate), time rules (UTC offset, DST policy, recurring
// holidays), and secular drift (multi-year adoption/CGNAT trends).  The
// world generator resolves the stack per country — registry defaults,
// then any `sim::WorldConfig::country_layers` overrides — and every
// block's draws come from the resolved values.  The default registry
// resolves to exactly the pre-layer scalar behavior (all multipliers
// 1.0, CGNAT 0, DST off, no holidays, zero drift), which is what keeps
// the golden fleet digest bitwise-stable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/date.h"

namespace diurnal::geo {

enum class Continent {
  kAsia,
  kEurope,
  kNorthAmerica,
  kSouthAmerica,
  kAfrica,
  kOceania,
};

std::string_view to_string(Continent c) noexcept;

/// A population center blocks can be placed around.
struct City {
  std::string name;
  double lat = 0.0;
  double lon = 0.0;
  double weight = 1.0;  ///< relative share of the country's blocks
};

/// Layer 1 — demographics: how many blocks the country contributes and
/// where they cluster.
struct DemographicsLayer {
  /// Relative share of the world's responsive /24 blocks.
  double block_weight = 1.0;
  std::vector<City> cities;
};

/// Layer 2 — adoption: how the country's access networks expose end
/// hosts.  `diurnal_visible_fraction` is the share of responsive blocks
/// whose hosts sit on public, dynamically used IPv4 (diurnal-visible);
/// the rest hide behind always-on NAT/servers/firewalls.  High in Asia
/// and Eastern Europe, low in North America and Western Europe
/// (section 3.5).  `cgnat_fraction` is the share of *diurnal* blocks a
/// carrier-grade NAT has absorbed by the start of the horizon — those
/// blocks answer only through their always-on gateway and lose their
/// diurnal signature.
struct AdoptionLayer {
  double diurnal_visible_fraction = 0.2;
  double cgnat_fraction = 0.0;
};

/// Layer 3 — network operations: ISP behavior knobs, expressed as
/// multipliers over the world-level base rates so the default (1.0)
/// resolves to exactly the pre-layer behavior.
struct NetworkOpsLayer {
  double renumber_multiplier = 1.0;  ///< scales WorldConfig::renumber_probability
  double outage_multiplier = 1.0;    ///< scales WorldConfig::outage_rate_per_90d
};

/// Daylight-saving rule families.  kNorthern follows the US rule
/// (spring forward the second Sunday of March at 02:00 standard time,
/// fall back the first Sunday of November at 02:00 daylight time);
/// kSouthern is the mirrored southern-hemisphere schedule (DST from the
/// first Sunday of October to the first Sunday of April).
enum class DstPolicy : std::uint8_t {
  kNone,
  kNorthern,
  kSouthern,
};

std::string_view to_string(DstPolicy p) noexcept;

/// A holiday that recurs every year of the horizon (fixed month/day).
struct AnnualHoliday {
  std::string name;
  int month = 1;
  int day = 1;
  int duration_days = 1;
  double adoption = 0.8;             ///< fraction of blocks observing it
  double residual_attendance = 0.2;  ///< workday activity retained
};

/// Layer 4 — time rules: the country's representative clock.
struct TimeRulesLayer {
  int utc_offset_hours = 0;  ///< representative standard-time offset
  DstPolicy dst = DstPolicy::kNone;
  std::vector<AnnualHoliday> holidays;
};

/// Layer 5 — secular drift: multi-year linear trends, in absolute
/// fraction per 365 days.  Adoption drift is applied at the horizon
/// midpoint; CGNAT drift spreads block migrations across the horizon.
struct DriftLayer {
  double adoption_trend_per_year = 0.0;
  double cgnat_trend_per_year = 0.0;
};

/// Static facts about a country used by the world generator, organised
/// as the layer stack the generator resolves per country.
struct CountryProfile {
  std::string code;  ///< ISO-3166-ish two-letter code
  std::string name;
  Continent continent = Continent::kAsia;

  DemographicsLayer demographics;
  AdoptionLayer adoption;
  NetworkOpsLayer network_ops;
  TimeRulesLayer time_rules;
  DriftLayer drift;

  /// Documented start of Covid-19 work-from-home / lockdown in 2020h1
  /// (from the news sources cited in section 3.6), if in-window.
  std::optional<util::Date> wfh_2020;

  int utc_offset_hours() const noexcept { return time_rules.utc_offset_hours; }
};

/// The full registry (stable order; index is a compact country id).
const std::vector<CountryProfile>& countries();

/// Index of a country code within countries(); throws if unknown.
std::size_t country_index(std::string_view code);

}  // namespace diurnal::geo
