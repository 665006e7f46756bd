#include "sim/block_profile.h"

#include <algorithm>

#include "sim/schedule.h"
#include "util/rng.h"

namespace diurnal::sim {

using util::SimTime;

std::string_view to_string(BlockCategory c) noexcept {
  switch (c) {
    case BlockCategory::kUnused: return "unused";
    case BlockCategory::kFirewalled: return "firewalled";
    case BlockCategory::kServerFarm: return "server-farm";
    case BlockCategory::kNatGateway: return "nat-gateway";
    case BlockCategory::kIntermittent: return "intermittent";
    case BlockCategory::kMixed: return "mixed";
    case BlockCategory::kOffice: return "office";
    case BlockCategory::kUniversity: return "university";
    case BlockCategory::kHomeDynamic: return "home-dynamic";
  }
  return "?";
}

bool is_diurnal_category(BlockCategory c) noexcept {
  return c == BlockCategory::kOffice || c == BlockCategory::kUniversity ||
         c == BlockCategory::kHomeDynamic;
}

namespace {

using schedule::hash_chance;
using schedule::LocalClock;

// Active suppression (if any) at time t; WFH-kind beats shorter events
// only through the min() of residuals.
struct ActiveSuppression {
  double residual = 1.0;  // 1.0 = no suppression
  bool wfh = false;       // a WFH suppression is active
  bool any = false;
};

ActiveSuppression suppression_at(const BlockProfile& b, SimTime t) noexcept {
  ActiveSuppression s;
  for (const auto& sup : b.suppressions) {
    if (t >= sup.start && t < sup.end) {
      s.any = true;
      s.residual = std::min(s.residual, sup.residual_attendance);
      if (sup.kind == EventKind::kWorkFromHome) s.wfh = true;
    }
  }
  return s;
}

// Device-population churn: real E(b) populations turn over (DHCP
// reassignment, staff and hardware changes), so a device's schedule and
// even its presence only persist for a few weeks.  This is what makes
// diurnality decohere over long observation windows (the paper's
// duration effect in Tables 2 and 3).  Epochs are staggered per device
// so churn never produces a block-wide step.  The epoch math lives in
// sim/schedule.h, shared with ActivityCursor.
struct DeviceEpoch {
  std::int64_t epoch;
  bool dormant;
};

DeviceEpoch device_epoch(const BlockProfile& b, std::uint64_t seed, int addr,
                         std::int64_t local_day) noexcept {
  if (b.stable_population) return DeviceEpoch{0, false};
  const std::int64_t epoch =
      schedule::epoch_of_day(local_day, schedule::epoch_stagger(seed, addr));
  return DeviceEpoch{epoch, schedule::epoch_dormant(seed, addr, epoch)};
}

// Work-week machine: on during office hours of attended workdays.
bool workday_device_active(const BlockProfile& b, std::uint64_t seed, int addr,
                           const LocalClock& lc, double attendance_scale,
                           double weekend_attendance) noexcept {
  const auto ep = device_epoch(b, seed, addr, lc.day);
  if (ep.dormant) return false;
  const auto hours = schedule::work_hours(seed, ep.epoch, addr);
  if (lc.hour < hours.arrival || lc.hour >= hours.departure) return false;
  const double base = lc.workday
                          ? static_cast<double>(b.base_attendance) * attendance_scale
                          : weekend_attendance;
  return hash_chance(schedule::workday_presence_hash(seed, addr, lc.day), base);
}

// Evening/home device on a public dynamic IP.
bool home_device_active(const BlockProfile& b, std::uint64_t seed, int addr,
                        const LocalClock& lc, bool wfh_boost,
                        double presence_scale) noexcept {
  const auto ep = device_epoch(b, seed, addr, lc.day);
  if (ep.dormant) return false;
  const int evening_start = schedule::evening_start_hour(seed, ep.epoch, addr);
  const bool weekend = !lc.workday;
  bool in_window = lc.hour >= evening_start && lc.hour <= 23;
  if (weekend && lc.hour >= 9) in_window = true;
  double presence = 0.85;
  if (!in_window && wfh_boost && lc.hour >= 9 && lc.hour < evening_start) {
    // Lockdown: people (and their devices) are home all day.
    in_window = true;
    presence = 0.70;
  }
  if (!in_window) return false;
  return hash_chance(schedule::home_presence_hash(seed, addr, lc.day),
                     presence * presence_scale * b.base_attendance);
}

// Random multi-hour sessions (6-hour slots).
bool intermittent_active(std::uint64_t seed, int addr, SimTime t) noexcept {
  return hash_chance(
      schedule::intermittent_hash(seed, addr, schedule::intermittent_slot(t)),
      0.45);
}

// DHCP-churny address: multi-hour random sessions (8-hour slots).
bool churny_active(std::uint64_t seed, int addr, SimTime t) noexcept {
  return hash_chance(
      schedule::churny_hash(seed, addr, schedule::churny_slot(t)), 0.75);
}

// Always-on server with occasional restart windows.
bool server_active(std::uint64_t seed, int addr, const LocalClock& lc,
                   double restart_prob) noexcept {
  const std::uint64_t day_h = schedule::server_day_hash(seed, addr, lc.day);
  if (!hash_chance(day_h, restart_prob)) return true;
  const int restart_hour = static_cast<int>((day_h >> 32) % 24);
  return lc.hour != restart_hour;
}

}  // namespace

bool address_active(const BlockProfile& b, int addr, SimTime t) noexcept {
  if (addr < 0 || addr >= static_cast<int>(b.eb_count)) return false;
  if (b.category == BlockCategory::kUnused ||
      b.category == BlockCategory::kFirewalled) {
    return false;
  }
  for (const auto& o : b.outages) {
    if (t >= o.start && t < o.end) return false;
  }
  if (b.vacate_at >= 0 && t >= b.vacate_at) {
    // Vacated (e.g. VPN moved): only a couple of infrastructure hosts stay.
    return addr < std::min<int>(b.always_on, 2);
  }
  std::uint64_t seed = b.seed;
  if (b.renumber_at >= 0 && t >= b.renumber_at) {
    if (t < b.renumber_at + schedule::kRenumberGap) return false;  // gap
    // A different population appears after renumbering.
    seed = schedule::renumbered_seed(seed);
    addr = static_cast<int>(b.eb_count) - 1 - addr;
  }

  const LocalClock lc = schedule::local_clock(b, t);
  if (addr < static_cast<int>(b.always_on)) {
    return server_active(seed, addr, lc, 0.01);
  }

  // The human population only occupies the block within its occupancy
  // window (infrastructure stays up).  CGNAT absorption ends the
  // publicly visible population the same way: after cgnat_at only the
  // always-on gateway addresses (handled above) still answer.
  if (!humans_present(b, t)) return false;

  // Stale E(b) entries: targets that responded in the past but are no
  // longer in use never answer now.
  if (b.current_fraction < 1.0f) {
    const std::uint64_t h = schedule::stale_hash(seed, addr);
    if (static_cast<double>(h >> 11) * 0x1.0p-53 >
        static_cast<double>(b.current_fraction)) {
      return false;
    }
  }

  const ActiveSuppression sup = suppression_at(b, t);
  switch (b.category) {
    case BlockCategory::kServerFarm: {
      // Hosting farms mix stable servers with dynamically leased hosts;
      // the churny share gives many non-diurnal blocks the wide daily
      // swings Table 2 reports.
      const std::uint64_t kind_h = schedule::farm_kind_hash(seed, addr);
      if (hash_chance(kind_h, 0.55)) return churny_active(seed, addr, t);
      return server_active(seed, addr, lc, 0.04);
    }
    case BlockCategory::kNatGateway:
      return false;  // only the always-on routers respond
    case BlockCategory::kIntermittent:
      return intermittent_active(seed, addr, t);
    case BlockCategory::kMixed:
      return workday_device_active(b, seed, addr, lc,
                                   0.55 * (sup.any ? sup.residual : 1.0), 0.10);
    case BlockCategory::kOffice:
      return workday_device_active(b, seed, addr, lc,
                                   sup.any ? sup.residual : 1.0, 0.06);
    case BlockCategory::kUniversity:
      return workday_device_active(b, seed, addr, lc,
                                   sup.any ? sup.residual : 1.0, 0.15);
    case BlockCategory::kHomeDynamic: {
      // Holidays/travel reduce home presence; WFH extends it into the day.
      const double scale =
          (sup.any && !sup.wfh) ? std::max(sup.residual, 0.35) : 1.0;
      return home_device_active(b, seed, addr, lc, sup.wfh, scale);
    }
    case BlockCategory::kUnused:
    case BlockCategory::kFirewalled:
      return false;
  }
  return false;
}

int active_count(const BlockProfile& b, SimTime t) noexcept {
  int n = 0;
  for (int a = 0; a < static_cast<int>(b.eb_count); ++a) {
    if (address_active(b, a, t)) ++n;
  }
  return n;
}

std::optional<SimTime> wfh_start(const BlockProfile& b) noexcept {
  // Home blocks respond to WFH with *more* daytime activity (people are
  // home), not with the downward loss-of-diurnality signal the detector
  // matches, so they carry no downward ground truth.
  if (b.category == BlockCategory::kHomeDynamic) return std::nullopt;
  for (const auto& s : b.suppressions) {
    if (s.kind == EventKind::kWorkFromHome) return s.start;
  }
  return std::nullopt;
}

}  // namespace diurnal::sim
