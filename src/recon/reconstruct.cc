#include "recon/reconstruct.h"

#include <algorithm>
#include <array>
#include <limits>

#include "analysis/stats.h"

namespace diurnal::recon {

ReconResult::ReconResult(const ReconStats& stats,
                         std::span<const double> samples)
    : ReconStats(stats),
      counts(stats.start, stats.step,
             std::vector<double>(samples.begin(), samples.end())) {}

double ReconResult::fbs_median_seconds() const {
  return analysis::median(fbs_spans_seconds);
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

void BlockReconState::emitted_stats(ReconStats& out,
                                    std::int64_t end) const {
  const std::size_t len = next_sample_;
  out.start = window_.start;
  out.step = degenerate_ ? std::max<std::int64_t>(opt_.sample_step, 1)
                         : opt_.sample_step;
  out.len = len;
  out.eb_count = eb_count_;
  out.responsive = positives_ > 0;
  out.mean_reply_rate =
      observations_ == 0 ? 0.0
                         : static_cast<double>(positives_) /
                               static_cast<double>(observations_);
  out.observations = observations_;
  out.observed_targets = observed_;
  out.max_active = max_active_;
  out.evidence_fraction = len == 0 ? 0.0
                                   : static_cast<double>(fresh_samples_) /
                                         static_cast<double>(len);
  out.max_gap_seconds = max_gap_seconds_;
  // A degenerate state observes nothing, so it has no span to close.
  if (!degenerate_) note_gap(end, out.gaps, out.max_gap_seconds);
}

void BlockReconState::finalize_stats(ReconStats& out) {
  emit_until(duration_);  // the whole window: next_sample_ == n_samples_
  // Swap instead of copy: `out` keeps the data, the state inherits the
  // old capacity for the next begin().
  std::swap(out.gaps, gaps_);
  std::swap(out.fbs_spans_seconds, fbs_spans_);
  emitted_stats(out, duration_);
}

void BlockReconState::finalize(ReconResult& out) {
  ReconStats stats;
  finalize_stats(stats);
  out = ReconResult(stats, series_view());
}

void BlockReconState::snapshot_stats(ReconStats& out) const {
  out.gaps.assign(gaps_.begin(), gaps_.end());
  out.fbs_spans_seconds.assign(fbs_spans_.begin(), fbs_spans_.end());
  emitted_stats(out,
                static_cast<std::int64_t>(next_sample_) * opt_.sample_step);
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

void BlockReconState::restore(util::StateReader& r) {
  fields(*this, r);
  // push() keeps the address counters exact functions of the address
  // states; a counter that disagrees (say, one near INT_MAX) would
  // overflow on the next push.
  const std::size_t addresses = static_cast<std::size_t>(
      std::clamp(eb_count_, 0, static_cast<int>(state_.size())));
  int active = 0;
  int observed = 0;
  for (std::size_t a = 0; a < state_.size(); ++a) {
    const std::int8_t s = state_[a];
    if (s < -1 || s > 1) util::bad_value("address state outside {-1, 0, 1}");
    if (a >= addresses && s != -1) {
      util::bad_value("address state past the block's addresses");
    }
    active += s == 1 ? 1 : 0;
    observed += s != -1 ? 1 : 0;
  }
  if (active_ != active || observed_ != observed) {
    util::bad_value("address counters disagree with the address states");
  }
}

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
