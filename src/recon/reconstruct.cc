#include "recon/reconstruct.h"

#include <algorithm>
#include <array>
#include <limits>

#include "analysis/stats.h"

namespace diurnal::recon {

double ReconResult::fbs_median_seconds() const {
  return analysis::median(fbs_spans_seconds);
}

double ReconResult::fbs_quantile_seconds(double q) const {
  return analysis::quantile(fbs_spans_seconds, q);
}

std::size_t sample_count(probe::ProbeWindow window, const ReconOptions& opt) {
  const std::int64_t step = opt.sample_step;
  const std::int64_t duration = window.end - window.start;
  if (step <= 0 || duration <= 0) return 0;
  return static_cast<std::size_t>((duration + step - 1) / step);
}

void BlockReconState::begin(int eb_count, probe::ProbeWindow window,
                            const ReconOptions& opt) {
  opt_ = opt;
  window_ = window;
  eb_count_ = eb_count;
  duration_ = window.end - window.start;
  degenerate_ = duration_ <= 0 || eb_count <= 0;
  n_samples_ = degenerate_ ? 0 : sample_count(window, opt);
  samples_.clear();  // sized by the first emission, if nothing is bound
  bound_ = {};
  // Per-address state: -1 unknown, 0 down, 1 up.
  state_.fill(-1);
  last_seen_.fill(-1);
  active_ = 0;
  observed_ = 0;
  positives_ = 0;
  next_sample_ = 0;
  // Effective-coverage tracking: a sample is fresh when some observation
  // (reply or not — coverage is about measurement, not activity) landed
  // within the trailing stale_horizon; observation-free spans longer
  // than the horizon are recorded as gaps.
  last_obs_rel_ = std::numeric_limits<std::int64_t>::min() / 2;
  fresh_samples_ = 0;
  max_active_ = 0.0;
  max_gap_seconds_ = 0.0;
  gaps_.clear();
  // Full-cover tracking: pass_epoch_[a] is the cover pass that last
  // touched address a; when a pass has touched all of E(b), its
  // duration is one full-block-scan span and the next pass begins.
  pass_epoch_.fill(0);
  pass_ = 1;
  pass_seen_ = 0;
  pass_start_ = 0;
  fbs_spans_.clear();
  observations_ = 0;
}

void BlockReconState::size_samples() { samples_.assign(n_samples_, 0.0); }

void BlockReconState::finalize(ReconResult& out) {
  out = ReconResult{};
  out.eb_count = eb_count_;
  if (degenerate_) {
    out.counts = util::TimeSeries(
        window_.start, std::max<std::int64_t>(opt_.sample_step, 1), {});
    return;
  }
  emit_until(duration_);
  note_gap(duration_);
  out.evidence_fraction =
      n_samples_ == 0 ? 0.0
                      : static_cast<double>(fresh_samples_) /
                            static_cast<double>(n_samples_);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.max_gap_seconds = max_gap_seconds_;
  out.gaps = std::move(gaps_);
  out.fbs_spans_seconds = std::move(fbs_spans_);
  if (bound_.empty()) {
    out.counts =
        util::TimeSeries(window_.start, opt_.sample_step, std::move(samples_));
  } else {
    // Bound output stays in the external buffer; the legacy result gets
    // a copy so both views agree.
    out.counts = util::TimeSeries(
        window_.start, opt_.sample_step,
        std::vector<double>(bound_.begin(), bound_.begin() + n_samples_));
  }
}

void BlockReconState::finalize_stats(ReconStats& out) {
  out.eb_count = eb_count_;
  out.start = window_.start;
  out.step = std::max<std::int64_t>(opt_.sample_step, 1);
  out.len = 0;
  out.responsive = false;
  out.mean_reply_rate = 0.0;
  out.observations = 0;
  out.observed_targets = 0;
  out.max_active = 0.0;
  out.evidence_fraction = 0.0;
  out.max_gap_seconds = 0.0;
  out.gaps.clear();
  out.fbs_spans_seconds.clear();
  if (degenerate_) return;
  emit_until(duration_);
  note_gap(duration_);
  out.step = opt_.sample_step;
  out.len = n_samples_;
  out.evidence_fraction =
      n_samples_ == 0 ? 0.0
                      : static_cast<double>(fresh_samples_) /
                            static_cast<double>(n_samples_);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.max_gap_seconds = max_gap_seconds_;
  // Swap instead of copy: `out` keeps the data, the state inherits the
  // old capacity for the next begin().
  std::swap(out.gaps, gaps_);
  std::swap(out.fbs_spans_seconds, fbs_spans_);
}

void BlockReconState::snapshot_stats(ReconStats& out) const {
  out.eb_count = eb_count_;
  out.start = window_.start;
  out.step = std::max<std::int64_t>(opt_.sample_step, 1);
  out.len = 0;
  out.responsive = false;
  out.mean_reply_rate = 0.0;
  out.observations = 0;
  out.observed_targets = 0;
  out.max_active = 0.0;
  out.evidence_fraction = 0.0;
  out.max_gap_seconds = 0.0;
  out.gaps.clear();
  out.fbs_spans_seconds.clear();
  if (degenerate_) return;
  // Replays what finalize() would compute on a copy truncated to the
  // emitted-sample prefix (snapshot() semantics): emit_until() is a
  // no-op on the truncated copy, so only the trailing note_gap() and
  // the evidence denominator change.
  const std::size_t len = next_sample_;
  const std::int64_t duration =
      static_cast<std::int64_t>(len) * opt_.sample_step;
  out.step = opt_.sample_step;
  out.len = len;
  out.evidence_fraction = len == 0 ? 0.0
                                   : static_cast<double>(fresh_samples_) /
                                         static_cast<double>(len);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.max_active = max_active_;
  out.fbs_spans_seconds.assign(fbs_spans_.begin(), fbs_spans_.end());
  out.gaps.assign(gaps_.begin(), gaps_.end());
  const std::int64_t from = std::max<std::int64_t>(last_obs_rel_, 0);
  if (duration - from > opt_.stale_horizon) {
    out.gaps.push_back(
        CoverageGap{window_.start + from, window_.start + duration});
  }
  out.max_gap_seconds =
      std::max(max_gap_seconds_, static_cast<double>(duration - from));
}

void BlockReconState::snapshot(ReconResult& out) const {
  BlockReconState copy = *this;
  copy.n_samples_ = copy.next_sample_;
  copy.duration_ = static_cast<std::int64_t>(copy.next_sample_) *
                   copy.opt_.sample_step;
  copy.samples_.resize(copy.n_samples_);
  copy.finalize(out);
}

template <class Self, class IO>
void BlockReconState::fields(Self& self, IO& io) {
  // Arguments-derived fields travel only as restore-time checks.
  io.expect(self.eb_count_, "recon state was saved for a different block");
  io.expect(self.n_samples_, "recon state was saved for a different block");
  for (auto& s : self.state_) {
    std::uint8_t byte = static_cast<std::uint8_t>(s);  // two's complement
    io.u8(byte);
    if constexpr (IO::kReading) s = static_cast<std::int8_t>(byte);
  }
  for (auto& t : self.last_seen_) io.i64(t);
  io.i64(self.active_);
  io.i64(self.observed_);
  io.u64(self.positives_);
  io.index(self.next_sample_, 0, self.n_samples_ + 1);
  io.i64(self.last_obs_rel_);
  io.u64(self.fresh_samples_);
  io.f64(self.max_active_);
  io.f64(self.max_gap_seconds_);
  io.seq(self.gaps_, [&io](auto& g) {
    io.i64(g.start);
    io.i64(g.end);
  });
  for (auto& p : self.pass_epoch_) io.u32(p);
  io.u32(self.pass_);
  io.i64(self.pass_seen_);
  io.i64(self.pass_start_);
  io.f64_span(self.fbs_spans_);
  io.u64(self.observations_);
  // The emitted-sample prefix is part of the state: a restored machine
  // must read back exactly the samples the saved one had written,
  // whether they live in the owned buffer or a bound store row.
  if constexpr (IO::kReading) {
    const std::size_t n = self.next_sample_;
    if (io.f64_span_into({self.sink(), n}) != n) {
      util::bad_value("emitted prefix shorter than the emitted count");
    }
  } else {
    io.f64_span(self.series_view().first(self.next_sample_));
  }
}

void BlockReconState::save(util::StateWriter& w) const { fields(*this, w); }

void BlockReconState::restore(util::StateReader& r) { fields(*this, r); }

ReconResult reconstruct(const probe::ObservationVec& merged, int eb_count,
                        probe::ProbeWindow window, const ReconOptions& opt) {
  BlockReconState state;
  state.begin(eb_count, window, opt);
  for (const auto& obs : merged) state.push(obs);
  ReconResult res;
  state.finalize(res);
  return res;
}

}  // namespace diurnal::recon
