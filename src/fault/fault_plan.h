// Deterministic observer fault plans (the degraded-mode layer).
//
// The paper's pipeline assumes six healthy observers: section 2.7 merges
// unsynchronized streams and section 3.3 repairs congestive loss, but a
// real multi-vantage fleet degrades constantly — observers go dark,
// reboot on maintenance schedules, flap, drift their clocks, cut rounds
// short, and share paths that drop probes in correlated bursts.  A
// FaultPlan describes those failures declaratively; the probe stage
// applies it to each observer's recorded stream (see fault/inject.h), so
// downstream stages see exactly what a degraded fleet would have
// delivered.  Every draw is a stateless hash of (plan seed, spec,
// observer, time), so injection is bit-reproducible and independent of
// the fleet's thread schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe/prober.h"
#include "util/date.h"

namespace diurnal::fault {

/// Matches every observer when used as a spec's observer code.
inline constexpr char kAllObservers = '*';

enum class OutageKind : std::uint8_t {
  kHardDown,         ///< observer dark for the whole [start, end) window
  kFlapping,         ///< irregular up/down slots inside [start, end)
  kScheduledReboot,  ///< periodic short outages inside [start, end)
};

/// One observer-outage window.  While dark, the observer records
/// nothing: its observations inside the dark intervals vanish.
struct OutageSpec {
  char observer = kAllObservers;
  OutageKind kind = OutageKind::kHardDown;
  util::SimTime start = 0;
  util::SimTime end = 0;

  /// Flapping: the window is cut into `flap_period` slots and each slot
  /// is independently down with probability `flap_down_fraction`
  /// (seeded, so the flap pattern is irregular but reproducible).
  util::SimTime flap_period = 2 * util::kSecondsPerHour;
  double flap_down_fraction = 0.5;

  /// Scheduled reboot: down for `reboot_duration` at the top of every
  /// `reboot_interval` after `start`.
  util::SimTime reboot_interval = util::kSecondsPerDay;
  util::SimTime reboot_duration = 30 * 60;
};

/// Constant clock skew plus linear drift on one observer's timestamps.
/// Recorded times become t + skew + drift_ppm * 1e-6 * t (t relative to
/// the probing-window start); observations pushed outside the window are
/// lost.  The transform is monotone for drift_ppm > -1e6, so streams
/// stay time-ordered.
struct ClockSkewSpec {
  char observer = kAllObservers;
  std::int64_t skew_seconds = 0;
  double drift_ppm = 0.0;
};

/// Correlated burst loss on an observer's path, layered on top of
/// probe::LossModelConfig's per-probe loss.  Each `mean_interval` of the
/// timeline holds one seeded burst of roughly `mean_duration` during
/// which positive replies are lost with probability `rate` — loss
/// concentrated in time, the signature of path congestion and router
/// drops, and exactly what 1-loss repair cannot fully fix.
struct BurstLossSpec {
  char observer = kAllObservers;
  double rate = 0.8;
  util::SimTime mean_interval = 8 * util::kSecondsPerHour;
  util::SimTime mean_duration = 15 * 60;
  /// Active window; start == end means the whole run.
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// Truncated rounds: with probability `prob` a probing round is cut
/// short after its first probe (the probing process died mid-round, as
/// happens on reboots and overload).
struct TruncationSpec {
  char observer = kAllObservers;
  double prob = 0.0;
  /// Active window; start == end means the whole run.
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// A complete fault scenario for a fleet run.  An empty plan (the
/// default) is the healthy fleet: injection is a no-op and the pipeline
/// output is bit-identical to a run without the fault layer.
struct FaultPlan {
  std::uint64_t seed = 0xFA117ULL;
  std::vector<OutageSpec> outages;
  std::vector<ClockSkewSpec> skews;
  std::vector<BurstLossSpec> bursts;
  std::vector<TruncationSpec> truncations;

  bool empty() const noexcept {
    return outages.empty() && skews.empty() && bursts.empty() &&
           truncations.empty();
  }
};

/// Names accepted by scenario(), in sweep order ("none" first).
const std::vector<std::string>& scenario_names();

/// Builds a named fault scenario sized to a probing window:
///   none      healthy fleet (empty plan)
///   dropout   observer e hard down for the middle ~40% of the window
///   flapping  observer j flapping in 2-hour slots over the full window
///   reboots   every observer reboots daily for 30 minutes
///   skew      observer n starts +90s skewed and drifts +200 ppm
///   bursts    correlated 15-minute loss bursts on every observer
///   truncate  observer w loses the tail of 30% of its rounds
///   meltdown  all of the above at once
/// Throws std::invalid_argument for unknown names.
FaultPlan scenario(const std::string& name, probe::ProbeWindow window);

}  // namespace diurnal::fault
