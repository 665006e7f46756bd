// Per-block streaming pipeline: the staged, resumable composition of
// probe -> fault injection -> 1-loss repair -> merge -> reconstruct
// that ingests observation rounds incrementally instead of re-running
// whole-window passes.
//
// Equivalence invariant (the engine's contract): feeding the full
// window through any sequence of advance_to() calls and finalizing is
// byte-identical to the batch per-stage pass, because every stage is an
// explicit state machine over the same sequential semantics —
//   * probing is causal (RoundProberState), so round slices concatenate
//     exactly;
//   * fault injection is a stateless hash of time plus an explicit
//     truncation carry (FaultCarry);
//   * 1-loss repair holds mutable observations until rescanned
//     (StreamRepair's release frontier) and never revises released
//     ones;
//   * the k-way merge pops an observation only once no other stream can
//     still produce one ordering before it (per-stream watermarks from
//     the prober's next-round time, through the skew transform);
//   * reconstruction emits samples as an idempotent prefix
//     (BlockReconState).
#pragma once

#include <span>

#include "fault/inject.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/repair.h"
#include "recon/reconstruct.h"
#include "sim/block_profile.h"

namespace diurnal::recon {

/// Read-only mid-stream health view: the stable counters a concurrent
/// epoch snapshot copies out of a live pass (core::SnapshotServer).
/// Pure reads of already-published values — no state machine is
/// touched, so taking one between advances is free.
struct StreamHealth {
  std::size_t delivered = 0;     ///< post-fault observations delivered
  std::size_t emitted = 0;       ///< stable reconstructed samples
  std::size_t observations = 0;  ///< observations folded into the recon
  int observers = 0;             ///< observer streams in the pass
};

class BlockStream {
 public:
  /// Re-initializes for one block, reusing internal buffers.  `config`
  /// and `scratch` are borrowed for the lifetime of this pass.
  ///
  /// classify_end != 0 selects union-window mode: one observation pass
  /// over config.window also maintains a second reconstruction over
  /// [window.start, classify_end), finalized by finalize_classify_stats().
  /// Requires window.start < classify_end <= window.end and a fault
  /// plan without skew specs (retiming drops depend on the window
  /// span, so a sliced stream would diverge from a dedicated
  /// classification pass).
  void begin(const sim::BlockProfile& block,
             const BlockObservationConfig& config, probe::ProbeScratch& scratch,
             util::SimTime classify_end = 0);

  /// Redirects the detection-window reconstruction's samples into an
  /// external buffer (a core::SeriesStore row).  Call right after
  /// begin(); the buffer must outlive the pass.
  void bind_series(std::span<double> out) { recon_.bind_output(out); }

  /// The detection-window sample buffer (bound row or internal); only
  /// the emitted prefix is meaningful before finalize.
  std::span<const double> series() const noexcept {
    return recon_.series_view();
  }
  /// Union-window mode: the classification-window sample buffer.
  std::span<const double> classify_series() const noexcept {
    return classify_recon_.series_view();
  }

  /// Ingests every probing round starting before min(until, window
  /// end) across all observers, then releases merged observations to
  /// the reconstruction(s) as far as the repair lookahead and merge
  /// watermarks allow.  Monotone in `until`.
  void advance_to(util::SimTime until);

  /// Rebinds the probing scratch.  Long-lived streams advanced from a
  /// worker pool share per-worker scratch (its caches are keyed, so
  /// interleaving blocks is safe); rebind before each advance.
  void set_scratch(probe::ProbeScratch& scratch) noexcept {
    scratch_ = &scratch;
  }

  /// Union-window mode only: produces the classification-window
  /// statistics, byte-identical to a dedicated batch pass over
  /// [window.start, classify_end); the samples stay readable via
  /// classify_series().  Must be called when advance_to(classify_end)
  /// has run and before any later advance (so the ingested rounds are
  /// exactly the classification window's).  Held/pending observations
  /// are drained into the classification recon as end-of-stream — the
  /// hold-until-rescanned carryover the detection stream keeps pending.
  void finalize_classify_stats(DegradedReconStats& out);

  /// Drains everything (remaining rounds, held repairs, pending merge
  /// heads) and produces the full-window statistics; the series stays
  /// in place (bound store row or the internal buffer, readable via
  /// series()).
  void finalize_stats(DegradedReconStats& out);

  /// Post-fault observations delivered by all observers so far.
  std::size_t delivered_observations() const noexcept { return delivered_; }

  /// Serializes the whole resumable pass: every observer stream's
  /// prober/fault/repair state, its pending observation buffer and the
  /// merge cursors, plus both reconstructions.  Config-derived setup
  /// (observer specs, prober configs, skew resolutions) is not written.
  void save(util::StateWriter& w) const;
  /// Restore contract: call begin() with the identical block, config
  /// and classify_end (and bind_series() if the original was bound),
  /// then restore().  Afterwards any advance/finalize schedule is
  /// bitwise-identical to continuing the saved stream.  Throws
  /// util::StateError on a corrupt or mismatched image, including any
  /// restored cursor outside the buffer or probe order it addresses.
  void restore(util::StateReader& r);

  /// Heap bytes this stream holds beyond sizeof(*this): per-observer
  /// observation buffers plus both reconstructions' buffers.  A shard
  /// worker's steady-state footprint is this plus its ProbeScratch —
  /// the number bench_shard reports per resident stream.
  std::size_t memory_bytes() const noexcept;
  /// The detection-window reconstruction state (stable emitted-sample
  /// prefix; provisional epoch analyses read this).
  const BlockReconState& recon_state() const noexcept { return recon_; }
  /// Mid-stream health counters (see StreamHealth).
  StreamHealth health() const noexcept {
    return StreamHealth{delivered_, recon_.emitted(), recon_.observations(),
                        static_cast<int>(streams_.size())};
  }

 private:
  template <class Self, class IO>
  static void fields(Self& self, IO& io);  // the layout, in wire order

  struct Stream {
    char code = '?';
    probe::ObserverSpec spec{};
    probe::ProberConfig prober{};
    probe::RoundProberState state{};
    fault::FaultCarry carry{};
    fault::StreamFaultStats stats{};
    fault::SkewResolution skew{};
    StreamRepair repair;
    /// Post-fault observations not yet compacted away; buf[0] is
    /// absolute stream position `base`.
    probe::ObservationVec buf;
    std::size_t base = 0;
    std::size_t released = 0;  ///< absolute repair frontier
    std::size_t consumed = 0;  ///< absolute count fed to the merge
    std::size_t delivered = 0;
    std::uint32_t first_rel = 0;
    std::uint32_t last_rel = 0;
  };

  void pump();
  void drain_classify_tail();
  void fill_observers(std::vector<fault::ObserverStreamInfo>& out) const;

  const sim::BlockProfile* block_ = nullptr;
  const BlockObservationConfig* config_ = nullptr;
  probe::ProbeScratch* scratch_ = nullptr;
  bool inject_ = false;
  util::SimTime classify_end_ = 0;
  bool classify_pending_ = false;
  std::vector<Stream> streams_;
  BlockReconState recon_;           ///< full (detection) window
  BlockReconState classify_recon_;  ///< union-window mode only
  std::size_t delivered_ = 0;
};

}  // namespace diurnal::recon
