#include "recon/stream.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace diurnal::recon {

using util::SimTime;

void BlockStream::begin(const sim::BlockProfile& block,
                        const BlockObservationConfig& config,
                        probe::ProbeScratch& scratch, SimTime classify_end) {
  block_ = &block;
  config_ = &config;
  scratch_ = &scratch;
  inject_ = config.faults != nullptr && !config.faults->empty();
  classify_end_ = classify_end;
  classify_pending_ = classify_end != 0;
  assert(!classify_pending_ ||
         (classify_end > config.window.start &&
          classify_end <= config.window.end &&
          (!inject_ || config.faults->skews.empty())));
  delivered_ = 0;

  const std::size_t n =
      config.observers.size() + (config.additional_observations ? 1 : 0);
  streams_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Stream& s = streams_[i];
    const bool extra = i >= config.observers.size();
    s.spec = extra ? probe::additional_observer() : config.observers[i];
    s.code = s.spec.code;
    s.prober = config.prober;
    if (extra) s.prober.kind = probe::ProberKind::kAdditional;
    probe::round_prober_begin(block, s.spec, config.window, s.state);
    s.carry = fault::FaultCarry{};
    s.stats = fault::StreamFaultStats{};
    s.skew = inject_ ? fault::resolve_skew(*config.faults, s.code)
                     : fault::SkewResolution{};
    s.repair.reset();
    s.buf.clear();
    s.base = 0;
    s.released = 0;
    s.consumed = 0;
    s.delivered = 0;
    s.first_rel = 0;
    s.last_rel = 0;
  }
  recon_.begin(block.eb_count, config.window, config.recon);
  if (classify_pending_) {
    classify_recon_.begin(
        block.eb_count,
        probe::ProbeWindow{config.window.start, classify_end}, config.recon);
  }
}

void BlockStream::advance_to(SimTime until) {
  assert(!classify_pending_ || until <= classify_end_);
  for (Stream& s : streams_) {
    if (s.state.done) continue;
    const std::size_t old = s.buf.size();
    probe::round_prober_resume(*block_, s.spec, config_->loss, config_->window,
                               s.prober, *scratch_, s.state, until, s.buf);
    if (inject_) {
      const auto st = fault::apply_faults_chunk(*config_->faults, s.code,
                                                config_->window, s.buf, old,
                                                s.carry);
      s.stats.input += st.input;
      s.stats.dropped += st.dropped;
      s.stats.corrupted += st.corrupted;
      s.stats.retimed += st.retimed;
    }
    if (s.buf.size() > old) {
      if (s.delivered == 0) s.first_rel = s.buf[old].rel_time;
      s.last_rel = s.buf.back().rel_time;
      const std::size_t got = s.buf.size() - old;
      s.delivered += got;
      delivered_ += got;
    }
    if (config_->one_loss_repair) {
      s.released = s.repair.ingest(s.buf, s.base);
    } else {
      s.released = s.base + s.buf.size();
    }
  }
  pump();
  // Compact consumed prefixes so the incremental mode's steady-state
  // footprint is the pending lookahead, not the whole window.  The
  // threshold trades memmove amortization against footprint: a fleet
  // holds one stream per (block, observer), so the consumed slack is
  // what dominates resident size in epoch-driven runs.
  for (Stream& s : streams_) {
    const std::size_t done = s.consumed - s.base;
    if (done > 512) {
      s.buf.erase(s.buf.begin(),
                  s.buf.begin() + static_cast<std::ptrdiff_t>(done));
      s.base = s.consumed;
    }
  }
}

void BlockStream::pump() {
  // Pop the globally next observation — order (rel_time, stream index),
  // the batch merge's total order — whenever no stream can still
  // produce one ordering before it.  Each stream's lower bound on
  // anything it may yet yield: its first unconsumed buffered
  // observation (timestamp already final even while its value is held
  // by repair), else its prober's next round start through the skew
  // transform, else +inf once exhausted and drained.
  const SimTime wstart = config_->window.start;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  for (;;) {
    std::size_t best = streams_.size();
    std::int64_t best_rel = kInf;
    bool best_poppable = false;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      std::int64_t rel;
      bool poppable = false;
      if (s.consumed < s.base + s.buf.size()) {
        rel = static_cast<std::int64_t>(
            s.buf[s.consumed - s.base].rel_time);
        poppable = s.consumed < s.released;
      } else if (!s.state.done) {
        rel = std::max<std::int64_t>(
            0, s.skew.transform(s.state.next_round - wstart));
      } else {
        continue;  // exhausted and drained: bound is +inf
      }
      if (rel < best_rel) {
        best_rel = rel;
        best = i;
        best_poppable = poppable;
      }
    }
    if (best == streams_.size() || !best_poppable) return;
    Stream& s = streams_[best];
    const probe::Observation& obs = s.buf[s.consumed - s.base];
    recon_.push(obs);
    if (classify_pending_) classify_recon_.push(obs);
    ++s.consumed;
  }
}

void BlockStream::fill_observers(
    std::vector<fault::ObserverStreamInfo>& out) const {
  out.assign(streams_.size(), {});
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const Stream& s = streams_[i];
    auto& si = out[i];
    si.code = s.code;
    si.observations = s.delivered;
    si.faults = s.stats;
    if (s.delivered > 0) {
      si.first_rel = s.first_rel;
      si.last_rel = s.last_rel;
    }
  }
}

void BlockStream::drain_classify_tail() {
  // Every ingested round starts before classify_end, so each stream's
  // buffered tail already holds its final classification-window values:
  // a repair flip needs a rescan, and any rescan inside the
  // classification window has been ingested and applied.  Draining the
  // tails in merge order is therefore exactly the batch end-of-stream.
  std::vector<std::size_t> cursor(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    cursor[i] = streams_[i].consumed;
  }
  for (;;) {
    std::size_t best = streams_.size();
    std::uint32_t best_rel = 0;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const Stream& s = streams_[i];
      if (cursor[i] >= s.base + s.buf.size()) continue;
      const std::uint32_t rel = s.buf[cursor[i] - s.base].rel_time;
      if (best == streams_.size() || rel < best_rel) {
        best = i;
        best_rel = rel;
      }
    }
    if (best == streams_.size()) break;
    const Stream& s = streams_[best];
    classify_recon_.push(s.buf[cursor[best] - s.base]);
    ++cursor[best];
  }
}

void BlockStream::finalize_classify_stats(DegradedReconStats& out) {
  assert(classify_pending_);
  drain_classify_tail();
  classify_recon_.finalize_stats(out.recon);
  fill_observers(out.observers);
  classify_pending_ = false;
}

void BlockStream::finalize_stats(DegradedReconStats& out) {
  advance_to(config_->window.end);
  if (config_->one_loss_repair) {
    for (Stream& s : streams_) s.released = s.repair.finish();
  }
  pump();
  recon_.finalize_stats(out.recon);
  fill_observers(out.observers);
}

template <class Self, class IO>
void BlockStream::fields(Self& self, IO& io) {
  io.boolean(self.classify_pending_);
  io.u64(self.delivered_);
  io.expect(self.streams_.size(),
            "stream state was saved with a different observer set");
  // The round loop reads the doubled probe order at cursor + j for
  // j < eb_count; merge and repair address buf[i - base].
  const std::size_t order = std::max<std::size_t>(self.block_->eb_count, 1);
  for (auto& s : self.streams_) {
    io.i64(s.state.next_round);
    io.index(s.state.cursor, 0, order);
    io.i64(s.state.rounds_since_positive);
    io.boolean(s.state.done);
    io.i64(s.carry.trunc_round);
    io.boolean(s.carry.trunc_fired);
    io.boolean(s.carry.trunc_kept_first);
    io.u64(s.stats.input);
    io.u64(s.stats.dropped);
    io.u64(s.stats.corrupted);
    io.u64(s.stats.retimed);
    io.nested(s.repair);
    // The pending buffer: timestamps are non-decreasing, so they
    // delta-encode to ~1 varint byte each.
    std::uint32_t prev_rel = 0;
    io.seq(s.buf, [&](auto& obs) {
      std::uint32_t delta = IO::kReading ? 0 : obs.rel_time - prev_rel;
      io.u32(delta);
      if constexpr (IO::kReading) obs.rel_time = prev_rel + delta;
      prev_rel = obs.rel_time;
      io.u8(obs.addr);
      io.boolean(obs.up);
    });
    io.u64(s.base);
    io.index(s.released, s.base, s.base + s.buf.size() + 1);
    io.index(s.consumed, s.base, s.base + s.buf.size() + 1);
    io.u64(s.delivered);
    io.u32(s.first_rel);
    io.u32(s.last_rel);
  }
  io.nested(self.recon_);
  if (self.classify_pending_) io.nested(self.classify_recon_);
}

void BlockStream::save(util::StateWriter& w) const { fields(*this, w); }

void BlockStream::restore(util::StateReader& r) {
  fields(*this, r);
  // begin() ran in the same mode (classify_end decides); the saved pass
  // may additionally have retired its classification fork.
  if (classify_pending_ && classify_end_ == 0) {
    util::bad_value("stream state was saved in union-window mode");
  }
  for (const Stream& s : streams_) {
    if (config_->one_loss_repair &&
        !s.repair.addresses_within(s.base, s.base + s.buf.size())) {
      util::bad_value("repair state outside the buffered range");
    }
  }
}

}  // namespace diurnal::recon
