#include "fault/inject.h"

#include <cmath>

#include "util/rng.h"

namespace diurnal::fault {

using util::SimTime;

namespace {

// Deterministic uniform in [0,1) from a derived seed.
inline double hash_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                           std::uint64_t c = 0) noexcept {
  return static_cast<double>(util::derive_seed(seed, a, b, c) >> 11) *
         0x1.0p-53;
}

inline bool in_window(SimTime t, SimTime start, SimTime end) noexcept {
  return start == end || (t >= start && t < end);
}

bool outage_dark_at(std::uint64_t seed, std::size_t spec_index,
                    const OutageSpec& o, char observer, SimTime t) {
  if (o.observer != kAllObservers && o.observer != observer) return false;
  if (t < o.start || t >= o.end) return false;
  switch (o.kind) {
    case OutageKind::kHardDown:
      return true;
    case OutageKind::kFlapping: {
      if (o.flap_period <= 0) return true;
      const auto slot = static_cast<std::uint64_t>((t - o.start) / o.flap_period);
      return hash_uniform(seed ^ 0xF1A9ULL, spec_index,
                          static_cast<std::uint64_t>(observer), slot) <
             o.flap_down_fraction;
    }
    case OutageKind::kScheduledReboot:
      if (o.reboot_interval <= 0) return true;
      return (t - o.start) % o.reboot_interval < o.reboot_duration;
  }
  return false;
}

}  // namespace

bool observer_dark_at(const FaultPlan& plan, char observer, SimTime t) {
  for (std::size_t i = 0; i < plan.outages.size(); ++i) {
    if (outage_dark_at(plan.seed, i, plan.outages[i], observer, t)) return true;
  }
  return false;
}

bool burst_active(std::uint64_t seed, std::size_t spec_index,
                  const BurstLossSpec& spec, SimTime t) {
  if (!in_window(t, spec.start, spec.end)) return false;
  if (spec.mean_interval <= 0) return false;
  // One seeded burst per interval of the timeline: its duration is
  // mean_duration * [0.5, 1.5) and its start offset is uniform over the
  // interval's slack, so bursts land irregularly but reproducibly.
  const auto k = static_cast<std::uint64_t>(t / spec.mean_interval);
  const std::uint64_t h = util::derive_seed(seed ^ 0xB0B5ULL, spec_index, k);
  const double u_off = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double u_dur =
      static_cast<double>(util::mix64(h) >> 11) * 0x1.0p-53;
  const auto duration = static_cast<SimTime>(
      static_cast<double>(spec.mean_duration) * (0.5 + u_dur));
  const SimTime slack = spec.mean_interval - duration;
  if (slack <= 0) return true;
  const auto offset =
      static_cast<SimTime>(u_off * static_cast<double>(slack));
  const SimTime into = t % spec.mean_interval;
  return into >= offset && into < offset + duration;
}

SkewResolution resolve_skew(const FaultPlan& plan, char observer) {
  SkewResolution r;
  for (const auto& s : plan.skews) {
    if (s.observer != kAllObservers && s.observer != observer) continue;
    r.skew_seconds += s.skew_seconds;
    r.drift_ppm += s.drift_ppm;
  }
  return r;
}

StreamFaultStats apply_faults_chunk(const FaultPlan& plan, char observer,
                                    probe::ProbeWindow window,
                                    probe::ObservationVec& stream,
                                    std::size_t from, FaultCarry& carry) {
  StreamFaultStats st;
  st.input = stream.size() - from;
  if (plan.empty() || st.input == 0) return st;

  // Resolve per-observer state once per chunk.
  bool any_outage = false;
  for (const auto& o : plan.outages) {
    any_outage |= o.observer == kAllObservers || o.observer == observer;
  }
  const SkewResolution skew_res = resolve_skew(plan, observer);
  const std::int64_t skew = skew_res.skew_seconds;
  const double drift_ppm = skew_res.drift_ppm;
  const bool retime = skew_res.retimes();
  double trunc_prob = 0.0;

  const std::int64_t span = window.end - window.start;
  const auto obs_salt = static_cast<std::uint64_t>(observer);

  probe::Observation* w = stream.data() + from;
  std::int64_t trunc_round = carry.trunc_round;
  bool trunc_fired = carry.trunc_fired;
  bool trunc_kept_first = carry.trunc_kept_first;
  for (auto it = stream.begin() + static_cast<std::ptrdiff_t>(from);
       it != stream.end(); ++it) {
    const probe::Observation& obs = *it;
    const SimTime t = window.start + static_cast<SimTime>(obs.rel_time);

    if (any_outage && observer_dark_at(plan, observer, t)) {
      ++st.dropped;
      continue;
    }

    if (!plan.truncations.empty()) {
      const std::int64_t round = t / util::kRoundSeconds;
      if (round != trunc_round) {
        trunc_round = round;
        trunc_kept_first = false;
        trunc_prob = 0.0;
        for (const auto& tr : plan.truncations) {
          if (tr.observer != kAllObservers && tr.observer != observer) continue;
          if (!in_window(t, tr.start, tr.end)) continue;
          trunc_prob = std::max(trunc_prob, tr.prob);
        }
        trunc_fired =
            trunc_prob > 0.0 &&
            hash_uniform(plan.seed ^ 0x79C7ULL, obs_salt,
                         static_cast<std::uint64_t>(round)) < trunc_prob;
      }
      if (trunc_fired) {
        if (trunc_kept_first) {
          ++st.dropped;
          continue;
        }
        trunc_kept_first = true;
      }
    }

    probe::Observation out = obs;
    if (out.up) {
      for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
        const auto& b = plan.bursts[i];
        if (b.observer != kAllObservers && b.observer != observer) continue;
        if (!burst_active(plan.seed, i, b, t)) continue;
        if (hash_uniform(plan.seed ^ 0x10D7ULL, obs_salt,
                         static_cast<std::uint64_t>(t), obs.addr) < b.rate) {
          out.up = false;
          ++st.corrupted;
          break;
        }
      }
    }

    if (retime) {
      const auto rel = static_cast<std::int64_t>(obs.rel_time) + skew +
                       static_cast<std::int64_t>(
                           drift_ppm * 1e-6 *
                           static_cast<double>(obs.rel_time));
      if (rel < 0 || rel >= span) {
        ++st.dropped;
        continue;
      }
      out.rel_time = static_cast<std::uint32_t>(rel);
      ++st.retimed;
    }
    *w++ = out;
  }
  stream.resize(static_cast<std::size_t>(w - stream.data()));
  carry.trunc_round = trunc_round;
  carry.trunc_fired = trunc_fired;
  carry.trunc_kept_first = trunc_kept_first;
  return st;
}

}  // namespace diurnal::fault
