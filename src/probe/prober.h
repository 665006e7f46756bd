// Probing engines (paper sections 2.2, 2.8).
//
//  * TrinocularProber: 11-minute rounds, targets in a pseudorandom order
//    fixed per quarter, 1..16 probes per round stopping at the first
//    positive reply (this adaptive stop is why full, always-responsive
//    blocks refresh slowly — section 3.1's 256-round worst case).
//  * Survey prober: every target every round (the it89w-style ground
//    truth of section 3.2).
//  * Additional-observations prober: |E(b)|/32.7 probes per round, max 8,
//    not stopping on positive replies, guaranteeing a 6-hour full-block
//    scan when combined with the fleet (section 2.8).
#pragma once

#include <cstdint>
#include <vector>

#include "probe/loss_model.h"
#include "probe/observer.h"
#include "sim/activity_cursor.h"
#include "sim/block_profile.h"
#include "util/default_init_allocator.h"

namespace diurnal::probe {

/// One probe result for a single target address.  Deliberately without
/// member initializers: observation buffers are grown to a worst-case
/// size and filled through a bare pointer, so resize must not spend
/// memory bandwidth zero-filling storage that is about to be overwritten
/// (see ObservationVec's allocator).
struct Observation {
  std::uint32_t rel_time;  ///< seconds since the window start
  std::uint8_t addr;       ///< target index within E(b)
  bool up;                 ///< positive reply received
};

/// resize() on this vector default-initializes (leaves elements
/// indeterminate) instead of zero-filling; producers write every element
/// they expose.
using ObservationVec =
    std::vector<Observation, util::DefaultInitAllocator<Observation>>;

enum class ProberKind : std::uint8_t {
  kTrinocular,
  kSurvey,
  kAdditional,
};

/// Probing window [start, end).
struct ProbeWindow {
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// Trinocular's per-round probe budget (confirmation probes included).
inline constexpr int kMaxProbesPerRound = 16;
/// Seed of the per-quarter pseudorandom probe order (shared by all
/// observers, as in the real system).
inline constexpr std::uint64_t kOrderSeed = 0x08DE8ULL;
/// Seed for per-probe loss draws (distinct per observer code).
inline constexpr std::uint64_t kLossSeed = 77;
/// Probability that a probe result is corrupted inside an observer's
/// hardware-fault window.
inline constexpr double kFaultFlipProb = 0.35;

struct ProberConfig {
  ProberKind kind = ProberKind::kTrinocular;
};

/// Reusable per-thread buffers for the prober's hot path.  A fleet run
/// probes hundreds of thousands of (block, observer) pairs; reusing one
/// scratch per worker removes every per-pair allocation.  Not
/// thread-safe: use one instance per thread.
struct ProbeScratch {
  /// Per-quarter probe-order permutation buffer.
  /// The permutation is shared by every observer (same seed, as in the
  /// real system), so it is keyed and reused across the fleet's
  /// back-to-back observer passes over one block instead of re-shuffled
  /// per pass.
  std::vector<std::uint8_t> order;
  std::uint64_t order_key = ~std::uint64_t{0};  ///< derive_seed(seed, block, quarter)
  /// Day table of order-permuted activity rows: entry i of a slot's row
  /// is `hour_mask(order[i]) | order[i] << 24`, so the steady-state
  /// probe loop walks one sequential array instead of chasing
  /// order[cursor] into the activity row.  Slots are direct-mapped by
  /// local day and keyed by (activity row key, order key); like the
  /// cursor's own day table, rows survive the fleet's back-to-back
  /// observer passes over one block.
  std::vector<std::uint32_t> prow;
  std::vector<std::uint64_t> prow_rkey;
  std::vector<std::uint64_t> prow_okey;
  std::size_t prow_stride = 0;
  /// Monotone-time activity cache, rebound per (block, window) pass.
  sim::ActivityCursor cursor;
  /// First loss-hash stage per address (depends only on block and addr,
  /// so it is hoisted out of the probe loop).
  std::vector<std::uint64_t> loss_h1;
};

/// Cross-round prober state: everything one observer carries from round
/// to round.  Probing is causal — each round's probes are a pure
/// function of (round time, cursor, belief) — so a window can be probed
/// in arbitrary round-aligned slices and yield the byte-identical
/// observation sequence a single full-window pass produces.  This is the
/// round-iterator API under the streaming fleet engine: batch probing is
/// begin() plus one resume() to the window end.
struct RoundProberState {
  util::SimTime next_round = 0;  ///< start time of the next unprobed round
  std::size_t cursor = 0;        ///< position in the shared probe order
  int rounds_since_positive = 0; ///< trinocular belief state
  bool done = false;             ///< no rounds remain in the window
};

/// Initializes `state` for probing `block` from `observer` over
/// `window` (deterministic initial cursor, first round at the
/// observer's phase offset).  Marks the state done when the block has
/// no targets or no round starts inside the window.
void round_prober_begin(const sim::BlockProfile& block,
                        const ObserverSpec& observer, ProbeWindow window,
                        RoundProberState& state);

/// Probes every round starting before min(until, window.end), appending
/// the observations to `out` in time order and advancing `state`.  A
/// round started before the bound emits all of its probes, even ones
/// paced past the bound (exactly as a full-window pass would).  Calling
/// with until >= window.end exhausts the window and marks the state
/// done.
void round_prober_resume(const sim::BlockProfile& block,
                         const ObserverSpec& observer, const LossModel& loss,
                         ProbeWindow window, const ProberConfig& config,
                         ProbeScratch& scratch, RoundProberState& state,
                         util::SimTime until, ObservationVec& out);

/// Number of probes per round the additional-observations prober sends
/// for a given target-list size (section 3.2.3: |E(b)|/(6*60/11), capped
/// at 8 = one probe per 88 seconds).
int additional_probes_per_round(int eb_count) noexcept;

/// Calendar quarter index of a simulation time (2019q4 = 0, 2020q1 = 1,
/// ...); the probe order reshuffles at each quarter boundary.
int quarter_index(util::SimTime t) noexcept;

/// First instant of the quarter after t.
util::SimTime next_quarter_start(util::SimTime t) noexcept;

}  // namespace diurnal::probe
