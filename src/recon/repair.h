// 1-loss repair (paper sections 2.3 and 3.3, after Heidemann et al.
// 2008 section 3.5).
//
// Reconstruction interprets a non-reply as "address inactive until
// rescanned", so a single lost probe on a congested path fabricates a
// long down period.  Because active addresses stay active across many
// rounds and loss is rare (back-to-back losses ~ p^2), the pattern
// positive/non/positive (101) in one observer's per-address sequence is
// better explained by loss: repair rewrites it to 111.  Patterns 001 and
// 110 are left alone.  Repair runs per observer, before merging.
#pragma once

#include <array>
#include <cstddef>

#include "probe/prober.h"
#include "util/state_io.h"

namespace diurnal::recon {

/// Statistics from a repair pass.
struct RepairStats {
  std::size_t observations = 0;
  std::size_t repaired = 0;  ///< non-replies flipped to positive
};

/// Applies 1-loss repair in place to a single observer's time-ordered
/// observation stream.  Returns how many observations were rewritten.
RepairStats one_loss_repair(probe::ObservationVec& stream);

/// Incremental 1-loss repair over a growing stream (the streaming
/// pipeline's hold-until-rescanned stage).  Repair is not causal: a
/// non-reply with a positive predecessor stays mutable until the next
/// observation of the same address arrives, so such observations are
/// held back and everything behind the earliest held one is released.
/// Feeding a full stream through ingest() in any chunking and then
/// finish() leaves the stream byte-identical to one one_loss_repair
/// pass.
///
/// Indices are absolute stream positions (monotone over the stream's
/// lifetime); the caller passes `base`, the absolute index of
/// stream[0], so it may compact released-and-consumed prefixes away
/// between calls.  Only observations at or above the returned frontier
/// may still be rewritten, so compacting below it is always safe.
class StreamRepair {
 public:
  StreamRepair() { reset(); }

  void reset();

  /// Processes every observation appended since the last call
  /// (absolute positions [processed, base + stream.size())), applying
  /// repairs in place.  Returns the release frontier: the absolute
  /// index below which every observation has reached its final value.
  std::size_t ingest(probe::ObservationVec& stream, std::size_t base);

  /// End-of-stream: observations still held (their rescan never came)
  /// keep their probed value, exactly as the batch pass leaves them.
  /// Returns the frontier, now equal to the stream length.
  std::size_t finish() noexcept { return processed_; }

  const RepairStats& stats() const noexcept { return stats_; }

  /// Serializes the per-address hold table, the processed frontier and
  /// the running stats; restore() overwrites them so ingest() continues
  /// exactly where the saved machine stopped.
  void save(util::StateWriter& w) const;
  void restore(util::StateReader& r);

  /// True when every absolute index the next ingest() may address —
  /// the processed frontier and each held flip target — lies in the
  /// buffered range [base, end).  A restored machine must pass before
  /// it touches a restored buffer.
  bool addresses_within(std::size_t base, std::size_t end) const noexcept;

 private:
  template <class Self, class IO>
  static void fields(Self& self, IO& io);  // the layout, in wire order

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct AddrState {
    std::size_t last = kNone;  ///< absolute index of the latest observation
    bool has_prev = false;
    bool last_up = false;
    bool prev_up = false;
  };
  std::array<AddrState, 256> addr_{};
  std::size_t processed_ = 0;  ///< absolute index of the next unseen obs
  RepairStats stats_{};
};

}  // namespace diurnal::recon
