// Incremental address reconstruction (paper section 2.3, Figure 2).
//
// Observations arrive incrementally; each address holds its last
// observed state until rescanned.  The reconstructor emits a regularly
// sampled active-address count series, tracks full-block-scan (FBS)
// spans for section 3.1's refresh-rate analysis, and reports reply-rate
// statistics used by the loss study in section 3.3.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "probe/prober.h"
#include "util/state_io.h"
#include "util/timeseries.h"

namespace diurnal::recon {

/// Effective-coverage horizon (paper section 2.8: the additional
/// observer guarantees a 6-hour full-block refresh).  A sample with no
/// observation in the trailing horizon is stale; spans with no
/// observations longer than this are recorded as coverage gaps.
inline constexpr std::int64_t kStaleHorizon = 6 * util::kSecondsPerHour;

struct ReconOptions {
  /// Output sampling interval for the count series (the fleet uses
  /// hourly; single-block case studies use per-round).
  std::int64_t sample_step = 3600;
};

/// A span of the window with no observations at all (absolute times):
/// the reconstruction holds stale state throughout, so anything inferred
/// from it rests on no fresh evidence.
struct CoverageGap {
  util::SimTime start = 0;
  util::SimTime end = 0;
};

/// Every statistic of a reconstruction plus the (start, step, len)
/// geometry of its series, without the samples themselves.  Used with
/// externally bound sample storage (core::SeriesStore rows), where the
/// series lives in the store and only the numbers travel.  Reusable
/// across blocks — gaps/fbs capacity is recycled.
struct ReconStats {
  util::SimTime start = 0;   ///< series start time
  std::int64_t step = 1;     ///< series sampling step (>= 1)
  std::size_t len = 0;       ///< samples in the series
  bool responsive = false;           ///< any positive reply in the window
  double mean_reply_rate = 0.0;      ///< positive / total observations
  std::size_t observations = 0;
  int eb_count = 0;
  int observed_targets = 0;          ///< distinct addresses ever observed
  double max_active = 0.0;

  /// Full-block-scan spans: the durations of successive complete covers
  /// of E(b) (each span is the time the merged observers took to touch
  /// every target once).  This is the quantity of Figure 3.
  std::vector<double> fbs_spans_seconds;

  /// Effective coverage (degraded-mode accounting): fraction of count
  /// samples with an observation inside the staleness horizon, the
  /// longest observation-free span, and every observation-free span
  /// longer than the horizon.  A healthy merged fleet probes every
  /// round, so evidence_fraction sits at ~1 with no gaps; when observers
  /// go dark the gaps say exactly which stretches of the series are
  /// held-over state rather than measurement.
  double evidence_fraction = 0.0;
  double max_gap_seconds = 0.0;
  std::vector<CoverageGap> gaps;
};

/// ReconStats plus its series: `counts` holds the `len` samples from
/// `start` every `step`.
struct ReconResult : ReconStats {
  ReconResult() = default;
  /// `stats` with a copy of its series' samples.
  ReconResult(const ReconStats& stats, std::span<const double> samples);

  util::TimeSeries counts;  ///< active-address estimate over time

  double fbs_median_seconds() const;
};

/// Samples in a reconstruction of `window` at opt.sample_step (0 for an
/// empty window or a non-positive step): the row stride a series store
/// needs for it.
std::size_t sample_count(probe::ProbeWindow window, const ReconOptions& opt);

/// Resumable reconstruction state machine: begin, then push each merged
/// observation as it clears the repair lookahead, then finalize_stats.
/// Sample emission is an idempotent prefix — a sample is written the
/// moment the stream passes it, never revised — so the emitted prefix
/// of series_view() and the finalized statistics are the same however
/// the pushes were chunked.  Copyable by design (value members only).
class BlockReconState {
 public:
  /// Re-initializes for one block.  The owned sample buffer is sized
  /// (reusing its capacity) only once samples are emitted with nothing
  /// bound, so a bound state never holds a window-length copy.
  void begin(int eb_count, probe::ProbeWindow window,
             const ReconOptions& opt = {});

  /// Redirects sample emission into an external buffer (a
  /// core::SeriesStore row).  Call immediately after begin(); `out`
  /// must outlive the state and hold at least emitted-capacity()
  /// samples (the store's stride is sized for the window).  The bound
  /// prefix is zero-filled here, like the owned buffer.
  void bind_output(std::span<double> out) {
    bound_ = out;
    std::fill_n(bound_.begin(), n_samples_, 0.0);
  }

  /// The full sample buffer for this block (owned or bound).  Only the
  /// emitted() prefix is meaningful mid-stream (an owned buffer is
  /// empty until the first sample); after finalize_stats() the whole
  /// view is.
  std::span<const double> series_view() const noexcept {
    return bound_.empty() ? std::span<const double>(samples_)
                          : std::span<const double>(bound_.data(), n_samples_);
  }

  /// Feeds the next merged observation (rel_time non-decreasing).
  /// Observations pacing past the window end (a round started inside
  /// the window emits all its probes) are tolerated.
  void push(const probe::Observation& obs) {
    if (degenerate_) return;
    const auto rel = static_cast<std::int64_t>(obs.rel_time);
    emit_until(rel - 1);
    note_gap(rel, gaps_, max_gap_seconds_);
    last_obs_rel_ = rel;
    ++observations_;
    const std::size_t a = obs.addr;
    if (a >= static_cast<std::size_t>(eb_count_)) return;
    if (state_[a] == -1) ++observed_;
    const std::int8_t now = obs.up ? 1 : 0;
    if (state_[a] == 1 && now == 0) --active_;
    if (state_[a] != 1 && now == 1) ++active_;
    state_[a] = now;
    last_seen_[a] = rel;
    if (obs.up) ++positives_;
    if (pass_epoch_[a] != pass_) {
      pass_epoch_[a] = pass_;
      if (++pass_seen_ == eb_count_) {
        fbs_spans_.push_back(static_cast<double>(rel - pass_start_));
        ++pass_;
        pass_seen_ = 0;
        pass_start_ = rel;
      }
    }
  }

  /// Emits the trailing samples and fills `out` with the statistics
  /// only (recycling its gaps/fbs capacity).  The series itself stays
  /// where it was written — read it via series_view() or the bound
  /// store row.  The state is spent afterwards; call begin() to reuse
  /// it.
  void finalize_stats(ReconStats& out);

  /// Statistics of the emitted-sample prefix, as if the window ended
  /// there: the evidence denominator is the prefix and the trailing
  /// observation-free span closes at its end, so mid-stream consumers
  /// (the streaming engine's provisional screens and snapshot rows) see
  /// honest statistics instead of a flat extrapolation to the window
  /// end.  The state is untouched; the emitted prefix of series_view()
  /// is the matching series.
  void snapshot_stats(ReconStats& out) const;

  /// Serializes every mutable field plus the emitted-sample prefix.
  /// Everything begin() derives from its arguments (window geometry,
  /// options, sample capacity) is *not* written — the restore contract
  /// is: call begin() (and bind_output(), if the original was bound)
  /// with identical arguments, then restore().  Checked fields
  /// (eb_count, sample count) guard against restoring into a state
  /// begun with different arguments.
  void save(util::StateWriter& w) const;
  /// Overwrites the mutable state from `r`; the emitted prefix lands in
  /// the current destination (bound row or owned buffer).  After this,
  /// the machine continues exactly where the saved one stopped: pushes,
  /// snapshots and finalize are bitwise-identical to an uninterrupted
  /// run.  Throws util::StateError and leaves the state unusable (call
  /// begin() again) on a corrupt or mismatched image.
  void restore(util::StateReader& r);

  /// Number of samples emitted so far (the stable prefix of
  /// series_view()).
  std::size_t emitted() const noexcept { return next_sample_; }
  std::size_t observations() const noexcept { return observations_; }

  /// Heap bytes held beyond sizeof(*this) — the per-worker residency
  /// accounting the shard scheduler and bench_shard report.
  std::size_t memory_bytes() const noexcept {
    return samples_.capacity() * sizeof(double) +
           gaps_.capacity() * sizeof(CoverageGap) +
           fbs_spans_.capacity() * sizeof(double);
  }

 private:
  template <class Self, class IO>
  static void fields(Self& self, IO& io);  // the layout, in wire order

  /// Where samples go: the bound row, else the owned buffer, sized on
  /// first use (out of line, off the per-observation path).
  double* sink() {
    if (!bound_.empty()) return bound_.data();
    if (samples_.size() != n_samples_) [[unlikely]] size_samples();
    return samples_.data();
  }
  void size_samples();
  void emit_until(std::int64_t rel_time) {
    double* const dst = sink();
    while (next_sample_ < n_samples_ &&
           static_cast<std::int64_t>(next_sample_) * opt_.sample_step <=
               rel_time) {
      dst[next_sample_] = static_cast<double>(active_);
      max_active_ = std::max(max_active_, dst[next_sample_]);
      if (static_cast<std::int64_t>(next_sample_) * opt_.sample_step -
              last_obs_rel_ <= kStaleHorizon) {
        ++fresh_samples_;
      }
      ++next_sample_;
    }
  }
  /// Closes the observation-free span from the last observation to
  /// `up_to` (window-relative): one longer than the stale horizon is a
  /// coverage gap.
  void note_gap(std::int64_t up_to, std::vector<CoverageGap>& gaps,
                double& max_gap) const {
    const std::int64_t from = std::max<std::int64_t>(last_obs_rel_, 0);
    if (up_to - from > kStaleHorizon) {
      gaps.push_back(CoverageGap{window_.start + from, window_.start + up_to});
    }
    max_gap = std::max(max_gap, static_cast<double>(up_to - from));
  }
  /// The statistics of the emitted prefix, its trailing observation-free
  /// span closed at `end` (window-relative): the one body behind
  /// finalize_stats() and snapshot_stats(), which first put the gaps
  /// and spans so far into out.gaps and out.fbs_spans_seconds.
  void emitted_stats(ReconStats& out, std::int64_t end) const;

  ReconOptions opt_{};
  probe::ProbeWindow window_{};
  int eb_count_ = 0;
  bool degenerate_ = true;
  std::int64_t duration_ = 0;
  std::size_t n_samples_ = 0;
  std::vector<double> samples_;
  std::span<double> bound_{};  ///< external output, empty = use samples_
  std::array<std::int8_t, 256> state_{};
  std::array<std::int64_t, 256> last_seen_{};
  int active_ = 0;
  int observed_ = 0;
  std::size_t positives_ = 0;
  std::size_t next_sample_ = 0;
  std::int64_t last_obs_rel_ = std::numeric_limits<std::int64_t>::min() / 2;
  std::size_t fresh_samples_ = 0;
  double max_active_ = 0.0;
  double max_gap_seconds_ = 0.0;
  std::vector<CoverageGap> gaps_;
  std::array<std::uint32_t, 256> pass_epoch_{};
  std::uint32_t pass_ = 1;
  int pass_seen_ = 0;
  std::int64_t pass_start_ = 0;
  std::vector<double> fbs_spans_;
  std::size_t observations_ = 0;
};

}  // namespace diurnal::recon
