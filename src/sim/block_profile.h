// Per-block ground truth: the taxonomy of /24 blocks the paper's filter
// funnel partitions (Table 2), plus the deterministic address-activity
// oracle the probers sample.
//
// Everything is derived from hashes of (block seed, address, day), so a
// probe at any time is O(1) and the whole world replays bit-exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/ipv4.h"
#include "sim/events.h"
#include "util/date.h"

namespace diurnal::sim {

/// What kind of network occupies a block.  Categories map onto the
/// paper's observations in sections 2.4 and 3.5: change-sensitive blocks
/// are offices/universities/public-dynamic pools; NAT gateways and
/// server farms are responsive but hide human schedules; firewalled and
/// unused blocks never respond.
enum class BlockCategory : std::uint8_t {
  kUnused,        ///< routed, never responds
  kFirewalled,    ///< routed, probes dropped
  kServerFarm,    ///< always-on hosts, occasional restarts
  kNatGateway,    ///< 1..8 always-on routers, nothing else visible
  kIntermittent,  ///< devices with random multi-hour on/off sessions
  kMixed,         ///< servers plus a few workday machines (narrow swing)
  kOffice,        ///< work-week diurnal, empty nights/weekends
  kUniversity,    ///< like office, larger and with some 24/7 labs
  kHomeDynamic,   ///< public dynamic IPs, evening/weekend activity
};

std::string_view to_string(BlockCategory c) noexcept;

/// True for categories whose blocks show human diurnal schedules.
bool is_diurnal_category(BlockCategory c) noexcept;

/// A resolved event effect on one block: during [start, end) the
/// workday attendance of its human-operated devices drops to
/// `residual_attendance` (or, for home blocks under WFH, daytime
/// presence rises instead).
struct Suppression {
  util::SimTime start = 0;
  util::SimTime end = 0;
  double residual_attendance = 0.1;
  EventKind kind = EventKind::kHoliday;
};

/// A whole-block outage [start, end): no address responds.
struct OutageInterval {
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// A timezone-offset change (DST transition): from `at` onward the
/// block's UTC offset is `offset_hours` (absolute, not a delta).
struct TzShift {
  util::SimTime at = 0;
  std::int16_t offset_hours = 0;
};

/// Ground truth for one /24 block.
struct BlockProfile {
  net::BlockId id;
  BlockCategory category = BlockCategory::kUnused;
  std::uint16_t country = 0;       ///< index into geo::countries()
  std::int16_t tz_offset_hours = 0;  ///< standard-time (base) offset

  /// DST transitions within the horizon, sorted by `at` (empty: the base
  /// offset holds for all time — the default-registry case).
  std::vector<TzShift> tz_shifts;
  float lat = 0.0f;
  float lon = 0.0f;
  std::uint16_t eb_count = 0;   ///< |E(b)|: ever-active addresses (targets)
  std::uint16_t always_on = 0;  ///< first k target indices are 24/7 hosts
  std::uint64_t seed = 0;
  float base_attendance = 0.93f;  ///< workday presence probability

  /// Mirrors WorldConfig::stable_population: devices keep their epoch-0
  /// schedule and never go dormant (no 21-day population churn).
  bool stable_population = false;

  /// Fraction of the (non-always-on) E(b) targets currently in use.
  /// E(b) is "ever responded in three years", so much of it is stale:
  /// the paper's Figure 1a block has |E(b)| = 88 but only 8-18 active.
  float current_fraction = 1.0f;

  std::vector<Suppression> suppressions;  ///< resolved events, by start
  std::vector<OutageInterval> outages;

  /// ISP renumbering instant (<0: none): activity pauses briefly, then a
  /// different population appears (paired down/up change, section 2.6).
  util::SimTime renumber_at = -1;

  /// Permanent vacate instant (<0: none), e.g. the USC VPN moving to a
  /// new address block (Appendix B.2).
  util::SimTime vacate_at = -1;

  /// Occupancy window of the human population (<0: unbounded).  ISPs
  /// move users between blocks and facilities open/close, so some
  /// blocks are diurnal for only part of any long observation window —
  /// the source of the paper's duration effect (section 3.2.2) and of
  /// the change-sensitive churn in section 3.4.
  util::SimTime occupied_from = -1;
  util::SimTime occupied_until = -1;

  /// CGNAT absorption instant (<0: none).  From `cgnat_at` onward the
  /// carrier has moved this block's subscribers behind carrier-grade
  /// NAT: only the always-on gateway addresses still answer, and the
  /// block's diurnal signature disappears — the adoption-layer masking
  /// effect ("The Lockdown Effect" §CGNAT; paper section 3.5).
  util::SimTime cgnat_at = -1;

  geo::GridCell cell() const noexcept {
    return geo::GridCell::of(lat, lon);
  }
};

/// True while the block's human population can be present at t: inside
/// its occupancy window and before any CGNAT absorption.  Infrastructure
/// (the always-on hosts) answers regardless.  A vacate is not part of the
/// rule; the truth scorers test it on top.
inline bool humans_present(const BlockProfile& b, util::SimTime t) noexcept {
  return !(b.occupied_from >= 0 && t < b.occupied_from) &&
         !(b.occupied_until >= 0 && t >= b.occupied_until) &&
         !(b.cgnat_at >= 0 && t >= b.cgnat_at);
}

/// True when target index `addr` of `block` answers a probe at time t.
/// `addr` must be < block.eb_count; out-of-range targets never respond.
bool address_active(const BlockProfile& block, int addr,
                    util::SimTime t) noexcept;

/// Ground-truth count of active target addresses at time t (O(|E(b)|)).
int active_count(const BlockProfile& block, util::SimTime t) noexcept;

/// The block's work-from-home onset, if one of its suppressions is WFH.
std::optional<util::SimTime> wfh_start(const BlockProfile& block) noexcept;

}  // namespace diurnal::sim
