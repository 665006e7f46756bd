// Applies a FaultPlan to one observer's recorded probe stream.
//
// Injection runs after the prober and before 1-loss repair: faults
// happen on the wire and at the observer, repair is an analysis-side
// decision.  Dark windows delete observations (a dead observer records
// nothing), burst loss flips positive replies to non-replies, truncation
// drops the tail of a round, and clock skew/drift rewrites timestamps —
// all as pure functions of (plan seed, observer, time), so a stream's
// degraded form is reproducible regardless of which worker probes it.
#pragma once

#include <cstddef>

#include "fault/fault_plan.h"
#include "probe/prober.h"

namespace diurnal::fault {

/// What injection did to one stream.
struct StreamFaultStats {
  std::size_t input = 0;      ///< observations before injection
  std::size_t dropped = 0;    ///< deleted (dark windows, truncation, skew)
  std::size_t corrupted = 0;  ///< positive replies flipped by burst loss
  std::size_t retimed = 0;    ///< timestamps rewritten by skew/drift

  bool touched() const noexcept {
    return dropped > 0 || corrupted > 0 || retimed > 0;
  }
};

/// True when `observer` is dark at time t under the plan's outage specs.
bool observer_dark_at(const FaultPlan& plan, char observer, util::SimTime t);

/// True when the indexed burst spec's deterministic schedule is active
/// at t (exposed for tests and the degradation report).
bool burst_active(std::uint64_t seed, std::size_t spec_index,
                  const BurstLossSpec& spec, util::SimTime t);

/// Sum of the plan's clock skew/drift specs matching one observer.
/// Retiming is monotone (for any sane drift), so the transform of a
/// lower time bound is a lower bound on transformed times — the
/// streaming merge uses this to compute per-stream watermarks.
struct SkewResolution {
  std::int64_t skew_seconds = 0;
  double drift_ppm = 0.0;

  bool retimes() const noexcept {
    return skew_seconds != 0 || drift_ppm != 0.0;
  }
  /// The retimed relative timestamp (may fall outside the window; the
  /// injector drops those).
  std::int64_t transform(std::int64_t rel) const noexcept {
    return rel + skew_seconds +
           static_cast<std::int64_t>(drift_ppm * 1e-6 *
                                     static_cast<double>(rel));
  }
};
SkewResolution resolve_skew(const FaultPlan& plan, char observer);

/// Cross-chunk injection state: truncation drops the tail of a round,
/// so a round split across two chunks must remember whether it fired
/// and whether its first observation was already kept.  Everything else
/// the injector does is a stateless function of (plan seed, observer,
/// time) and needs no carry.
struct FaultCarry {
  std::int64_t trunc_round = -1;
  bool trunc_fired = false;
  bool trunc_kept_first = false;
};

/// Applies the plan to stream[from..) of one observer's time-ordered
/// stream in place (survivors compacted into that tail), carrying
/// truncation state across calls.  A plan with no spec matching
/// `observer` is a no-op; the stream stays time-ordered (skew/drift is a
/// monotone transform and survivors keep their relative order).  Feeding
/// one full stream through successive chunks at any boundaries yields
/// the same survivors as one call from 0 with a fresh carry; per-chunk
/// stats are additive.
StreamFaultStats apply_faults_chunk(const FaultPlan& plan, char observer,
                                    probe::ProbeWindow window,
                                    probe::ObservationVec& stream,
                                    std::size_t from, FaultCarry& carry);

}  // namespace diurnal::fault
