#include "core/streaming.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <mutex>
#include <span>

#include "core/checkpoint.h"
#include "core/worker_pool.h"

namespace diurnal::core {

namespace {

/// Lanes of the worker's finish queue: FleetConfig::analysis_batch_width
/// resolved (0 = full width, otherwise clamped to [1, kMaxLanes]).
std::size_t batch_width(int requested) {
  constexpr std::size_t kMax = analysis::BatchAnalyzer::kMaxLanes;
  if (requested <= 0) return kMax;
  return std::min(static_cast<std::size_t>(requested), kMax);
}

BatchClassifyJob classify_job(std::span<const double> counts,
                              const recon::ReconStats& rs,
                              BlockClassification* out) {
  return {counts, rs.start, rs.step, rs.responsive, rs.evidence_fraction, out};
}

// Chunked self-scheduling: workers steal fixed runs of consecutive
// blocks from a shared counter.  Chunks amortize the atomic to one
// fetch_add per kChunk blocks while still load-balancing (block costs
// vary by orders of magnitude between categories); consecutive blocks
// also keep each worker's scratch buffers at a stable working size.
// Each block's state and result slots are its own, so the schedule
// cannot affect the output (see bench_fleet's determinism gate) —
// fault injection included, because every fault draw is a stateless
// hash, never shared RNG state.
constexpr std::size_t kChunk = 16;

/// Calls body(i) for every block of [0, n) the shared counter hands
/// this worker.
template <typename Body>
void for_each_block(std::atomic<std::size_t>& next, std::size_t n,
                    Body&& body) {
  for (;;) {
    const std::size_t begin = next.fetch_add(kChunk, std::memory_order_relaxed);
    if (begin >= n) return;
    const std::size_t end = std::min(begin + kChunk, n);
    for (std::size_t i = begin; i < end; ++i) body(i);
  }
}

/// Trailing-window span for the provisional detector's STL re-fits, in
/// seasonal periods: long enough that the right edge of the trend is
/// anchored by a few full cycles, short enough that the per-epoch cost
/// stays flat as the stream grows.
constexpr std::size_t kTrailPeriods = 5;

}  // namespace

// One worker's finish path, shared by both drives.  A block joins the
// queue as soon as its classification series and stats are final; a
// full queue, or the worker's ragged tail, gets its verdicts from one
// classify_blocks_batch call.  Then every queued block is handed to the
// caller's `on_verdict` step, the only part that differs by call site:
// finalize() says to detect a change-sensitive block, first making its
// detection series final in its store row on split windows (on a single
// window that series was the classification series); an advance records
// a split-window verdict and detects nothing.  Those blocks run through
// the batched detector, and the low-evidence annotation follows its
// flush.  Slots reuse their high-water capacity, so the steady state
// allocates nothing per block.  The incremental drive's provisional
// watch queues its trailing STL refits here as well, fitted as shape
// batches.
struct StreamingFleet::Worker {
  struct Slot {
    std::size_t index = 0;
    bool classify = true;            ///< verdict pending, else detect only
    std::span<const double> counts;  ///< the classification series
    recon::DegradedReconStats sr;    ///< stats of the series made final last
  };

  /// One watched cell's trailing refit: samples [first, first +
  /// counts.size()) of its detection series.
  struct WatchFit {
    std::span<const double> counts;
    std::int64_t step = 0;
    std::size_t cell = 0;
    std::size_t first = 0;
    int period = 0;
  };

  explicit Worker(StreamingFleet& f)
      : fleet(f),
        width(batch_width(f.config_.analysis_batch_width)),
        det(f.config_.detector, width) {
    if (!f.split_) return;
    const recon::BlockObservationConfig& oc = f.classify_oc_;
    classify_rows.reset(width, recon::sample_count(oc.window, oc.recon),
                        oc.window.start, oc.recon.sample_step);
  }

  Slot& push(std::size_t i, bool classify = true) {
    Slot& s = slots[n++];
    s.index = i;
    s.classify = classify;
    return s;
  }
  bool full() const noexcept { return n == width; }

  /// Queues block i with its classification series final: a dedicated
  /// classification-window pass on split windows, else the detection
  /// series.
  void queue(std::size_t i) {
    Slot& s = push(i);
    if (fleet.split_) {
      classify_pass(s);
    } else {
      drain_detection(s);
    }
  }

  /// Makes the slot block's detection-window series final in its store
  /// row: the cell's stream once the engine advanced, else a pass of the
  /// worker's own stream (an engine that never advanced keeps no cells).
  void drain_detection(Slot& s) {
    recon::BlockStream* stream = &pass;
    if (fleet.cells_.empty()) {
      pass.begin(fleet.blocks_[s.index], fleet.detect_oc_, scratch);
      pass.bind_series(fleet.store_.row(s.index));
    } else {
      stream = &fleet.cells_[s.index].stream;
    }
    stream->finalize_stats(s.sr);
    fleet.store_.set_len(s.index, s.sr.recon.len);
    s.counts = fleet.store_.series(s.index);
  }

  /// Dedicated classification-window pass into the slot's row of the
  /// W-row classification store (split windows).
  void classify_pass(Slot& s) {
    const std::size_t k = static_cast<std::size_t>(&s - slots.data());
    pass.begin(fleet.blocks_[s.index], fleet.classify_oc_, scratch);
    pass.bind_series(classify_rows.row(k));
    pass.finalize_stats(s.sr);
    s.counts = classify_rows.row(k).first(s.sr.recon.len);
  }

  template <typename OnVerdict>
  void flush(OnVerdict&& on_verdict) {
    FleetResult& result = fleet.result_;
    std::array<BatchClassifyJob, analysis::BatchAnalyzer::kMaxLanes> jobs;
    std::size_t n_jobs = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Slot& s = slots[k];
      if (!s.classify) continue;
      const recon::ReconStats& rs = s.sr.recon;
      jobs[n_jobs++] =
          classify_job(s.counts, rs, &result.outcomes[s.index].cls);
      result.degradation.blocks[s.index] = fault::summarize_block(
          s.sr.observers, static_cast<int>(s.sr.observers.size()),
          fleet.classify_oc_.window, rs.evidence_fraction, rs.max_gap_seconds,
          kMinEvidenceFraction);
    }
    classify_blocks_batch(std::span<BatchClassifyJob>(jobs.data(), n_jobs),
                          fleet.config_.classifier, baz);
    for (std::size_t k = 0; k < n; ++k) {
      Slot& s = slots[k];
      if (!on_verdict(s)) continue;
      det.enqueue(fleet.store_.series(s.index), s.sr.recon.start,
                  s.sr.recon.step, &result.outcomes[s.index].changes);
    }
    det.flush();
    // A block that skipped detection has no changes: a no-op here.
    for (std::size_t k = 0; k < n; ++k) {
      const Slot& s = slots[k];
      annotate_low_evidence(result.outcomes[s.index].changes,
                            s.sr.recon.evidence_fraction, s.sr.recon.gaps,
                            kMinEvidenceFraction);
    }
    n = 0;
  }

  void queue_fit(const WatchFit& f) {
    fits[n_fits++] = f;
    if (n_fits == width) fit_watch();
  }

  /// Fits every queued watch window (equal lengths share a batch), then
  /// feeds each cell's frozen-trend running z and online CUSUM.  The
  /// detection chain's trend is the scalar STL's, bit for bit.
  void fit_watch() {
    analysis::for_each_shape_batch(
        std::span<WatchFit>(fits.data(), n_fits),
        [](const WatchFit&) { return true; },
        [&](std::span<const std::span<const double>> lanes,
            std::span<const std::size_t> fit_of_lane) {
          const int period = fits[fit_of_lane[0]].period;
          baz.run_detection_chain(lanes, detector_stl_options(period),
                                  fleet.config_.detector.cusum);
          for (std::size_t j = 0; j < lanes.size(); ++j) {
            feed_watch(fits[fit_of_lane[j]], baz.trend(j));
          }
        });
    n_fits = 0;
  }

  void feed_watch(const WatchFit& f, std::span<const double> trend) {
    Cell& c = fleet.cells_[f.cell];
    const std::size_t emitted = f.first + f.counts.size();
    if (c.tn == 0) {
      c.cusum.begin(fleet.config_.detector.cusum);
      c.trend_base = f.first;
    }
    for (std::size_t idx = std::max(c.trend_fed, f.first); idx < emitted;
         ++idx) {
      // Freeze the trend as first estimated and z-normalize with running
      // moments: the stream sees each value once, so this is what an
      // online detector can actually know at that point in time.
      const double v = trend[idx - f.first];
      ++c.tn;
      c.tsum += v;
      c.tsum2 += v * v;
      const double mean = c.tsum / static_cast<double>(c.tn);
      const double var =
          std::max(0.0, c.tsum2 / static_cast<double>(c.tn) - mean * mean);
      const double sd = std::sqrt(var);
      c.cusum.push(sd > 1e-9 ? (v - mean) / sd : 0.0);
    }
    c.trend_fed = emitted;

    auto time_of = [&](std::size_t k) {
      return fleet.window_.start +
             static_cast<std::int64_t>(c.trend_base + k) * f.step;
    };
    const auto& confirmed = c.cusum.confirmed();
    for (; c.reported < confirmed.size(); ++c.reported) {
      const auto& cp = confirmed[c.reported];
      ProvisionalChange pc;
      pc.id = fleet.blocks_[f.cell].id;
      pc.start = time_of(cp.start);
      pc.alarm = time_of(cp.alarm);
      pc.end = time_of(cp.end);
      pc.direction = cp.direction;
      pc.amplitude = cp.amplitude;
      found.push_back(pc);
    }
  }

  StreamingFleet& fleet;
  const std::size_t width;
  probe::ProbeScratch scratch;
  recon::BlockStream pass;    ///< per-block passes (no cells, split windows)
  SeriesStore classify_rows;  ///< one row per slot (split windows)
  std::array<Slot, analysis::BatchAnalyzer::kMaxLanes> slots;
  std::size_t n = 0;
  analysis::BatchAnalyzer baz;
  BatchDetector det;
  recon::ReconStats screen;  ///< the provisional screen's snapshot
  std::array<WatchFit, analysis::BatchAnalyzer::kMaxLanes> fits;
  std::size_t n_fits = 0;
  std::vector<ProvisionalChange> found;  ///< alarms confirmed this epoch
};

StreamingFleet::StreamingFleet(std::span<const sim::BlockProfile> blocks,
                               const FleetConfig& config)
    : blocks_(blocks), config_(config) {
  const DatasetSpec& classify_ds =
      config.classify_dataset ? *config.classify_dataset : config.dataset;
  window_ = config.dataset.window();
  classify_window_ = classify_ds.window();
  // The detection pass serves classification too unless classification
  // names another window or observer set.
  split_ = config.classify_dataset &&
           (classify_window_.start != window_.start ||
            classify_window_.end != window_.end ||
            classify_ds.sites != config.dataset.sites ||
            classify_ds.survey != config.dataset.survey);
  classify_oc_ = config.observation(classify_ds);
  detect_oc_ = config.observation(config.dataset);
  threads_ = resolve_threads(config.threads);

  result_.outcomes.resize(blocks_.size());
  result_.degradation.blocks.resize(blocks_.size());
  // One allocation for every block's detection-window series; rows are
  // bound to each reconstruction as it begins.
  store_.reset(blocks_.size(), recon::sample_count(window_, config.recon),
               window_.start, config.recon.sample_step);
  clock_ = window_.start;
}

bool StreamingFleet::detects(std::size_t i) const noexcept {
  return config_.run_detection && result_.outcomes[i].cls.change_sensitive;
}

void StreamingFleet::finish_result() {
  result_.funnel = FunnelCounts{};
  for (const auto& out : result_.outcomes) result_.funnel.add(out.cls);
  result_.degradation.finalize();
  result_.series = std::move(store_);
  finished_ = true;
}

void StreamingFleet::begin_cell(std::size_t i, probe::ProbeScratch& scratch) {
  Cell& c = cells_[i];
  if (blocks_[i].eb_count == 0) {
    c.classified = true;  // trivially: never responds
    c.screened = true;
  } else {
    c.active = true;
  }
  bind_cell(i, scratch);
}

void StreamingFleet::bind_cell(std::size_t i, probe::ProbeScratch& scratch) {
  const auto& block = blocks_[i];
  if (block.eb_count == 0) return;
  Cell& c = cells_[i];
  c.stream.begin(block, detect_oc_, scratch);
  c.stream.bind_series(store_.row(i));
}

void StreamingFleet::screen_cell(std::size_t i, Worker& w) {
  Cell& c = cells_[i];
  const std::int64_t step = detect_oc_.recon.sample_step;
  // Nothing the watch could feed: detection is off, or the detector
  // rejects the sampling step at any series length.
  if (!config_.run_detection ||
      detection_period(std::numeric_limits<std::size_t>::max(), step) == 0) {
    c.screened = true;
    return;
  }
  const auto& rs = c.stream.recon_state();
  if (detection_period(rs.emitted(), step) == 0) return;
  // Provisional screen: classify a truncated snapshot of the stream so
  // far.  The verdict is only a watch decision — the authoritative
  // classification happens at finalize over the full window.
  rs.snapshot_stats(w.screen);
  BlockClassification cls;
  BatchClassifyJob job =
      classify_job(c.stream.series().first(w.screen.len), w.screen, &cls);
  classify_blocks_batch(std::span<BatchClassifyJob>(&job, 1),
                        config_.classifier, w.baz);
  c.screened = true;
  c.watched = cls.change_sensitive;
}

void StreamingFleet::update_provisional(std::size_t i, Worker& w) {
  Cell& c = cells_[i];
  const std::int64_t step = detect_oc_.recon.sample_step;
  const std::size_t emitted = c.stream.recon_state().emitted();
  const int period = detection_period(emitted, step);
  if (period == 0 || emitted <= c.trend_fed) return;

  // Trailing-window STL re-fit: bounded per-epoch cost.  If the last fit
  // is older than the trailing span (an epoch longer than the span),
  // stretch the window back to it so the z sequence stays contiguous —
  // the CUSUM's indices map 1:1 onto samples trend_base + k.  The row
  // holds still until the next advance: each cell advances once per
  // epoch, on one worker.
  const std::size_t span = kTrailPeriods * static_cast<std::size_t>(period);
  std::size_t first = emitted - std::min(emitted, span);
  if (c.tn > 0 && c.trend_fed < first) first = c.trend_fed;
  w.queue_fit({c.stream.series().subspan(first, emitted - first), step, i,
               first, period});
}

EpochReport StreamingFleet::advance_to(util::SimTime until) {
  assert(!finished_);
  const bool first = cells_.empty();  // the first advance begins every cell
  cells_.resize(blocks_.size());
  until = std::clamp(until, window_.start, window_.end);
  until = std::max(until, clock_);

  EpochReport rep;
  rep.epoch_index = epoch_index_++;
  rep.epoch_start = clock_;
  rep.epoch_end = until;
  // Split windows: this epoch completes the classification window, so
  // every verdict still pending lands now.
  const bool verdicts_due = split_ && until >= classify_window_.end;

  std::mutex mu;
  run_pool(threads_, [&](std::atomic<std::size_t>& next) {
    Worker w(*this);
    std::size_t delivered = 0;
    // Everything after a cell's advance this epoch: delivery accounting,
    // the single-window watch screen and the provisional detector.
    auto settle = [&](std::size_t i) {
      Cell& c = cells_[i];
      const std::size_t d = c.stream.delivered_observations();
      delivered += d - c.delivered;
      c.delivered = d;
      if (!split_ && !c.screened) screen_cell(i, w);
      if (c.watched) update_provisional(i, w);
    };
    // A split-window verdict decides the watch.  Detection itself waits
    // for finalize().
    auto after_verdict = [&](Worker::Slot& s) {
      Cell& c = cells_[s.index];
      c.classified = true;
      c.screened = true;
      c.watched = detects(s.index);
      if (!c.watched) c.active = false;  // verdict final, no detection to feed
      settle(s.index);
      return false;
    };
    for_each_block(next, blocks_.size(), [&](std::size_t i) {
      Cell& c = cells_[i];
      if (first) begin_cell(i, w.scratch);
      if (!c.active) return;
      c.stream.set_scratch(w.scratch);
      c.stream.advance_to(until);
      if (verdicts_due && !c.classified) {
        w.queue(i);
        if (w.full()) w.flush(after_verdict);
        return;
      }
      settle(i);
    });
    w.flush(after_verdict);
    w.fit_watch();
    const std::lock_guard<std::mutex> lock(mu);
    rep.observations += delivered;
    rep.provisional.insert(rep.provisional.end(), w.found.begin(),
                           w.found.end());
  });

  clock_ = until;
  std::sort(rep.provisional.begin(), rep.provisional.end(),
            [](const ProvisionalChange& a, const ProvisionalChange& b) {
              if (a.alarm != b.alarm) return a.alarm < b.alarm;
              return a.id.id() < b.id.id();
            });
  if (verdicts_due) {
    rep.classification_complete = true;
    for (const auto& out : result_.outcomes) rep.funnel.add(out.cls);
  }
  return rep;
}

FleetResult StreamingFleet::finalize() {
  assert(!finished_);
  run_pool(threads_, [&](std::atomic<std::size_t>& next) {
    Worker w(*this);
    // Split windows: a detection series for change-sensitive blocks only.
    auto detect_series = [&](Worker::Slot& s) {
      if (!detects(s.index)) return false;
      if (split_) w.drain_detection(s);
      return true;
    };
    for_each_block(next, blocks_.size(), [&](std::size_t i) {
      result_.outcomes[i].id = blocks_[i].id;
      if (cells_.empty()) {
        if (blocks_[i].eb_count == 0) return;  // never responds
        w.queue(i);
      } else {
        Cell& c = cells_[i];
        // Never responds, or an epoch's verdict left nothing to detect.
        if (c.classified && !c.active) return;
        c.stream.set_scratch(w.scratch);
        if (c.classified) {
          w.push(i, /*classify=*/false);
        } else {
          w.queue(i);
        }
      }
      if (w.full()) w.flush(detect_series);
    });
    w.flush(detect_series);
  });
  finish_result();
  cells_.clear();
  return std::move(result_);
}

void StreamingFleet::extract_rows(std::vector<BlockSnapshotRow>& rows) const {
  assert(!finished_);
  rows.resize(blocks_.size());
  recon::ReconStats stats;  // recycled across rows
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    BlockSnapshotRow& row = rows[i];
    row = BlockSnapshotRow{};
    row.id = blocks_[i].id;
    row.begun = !cells_.empty();  // the first advance begins every cell
    if (!row.begun) continue;
    const Cell& c = cells_[i];
    row.active = c.active;
    row.classified = c.classified;
    row.watched = c.watched;
    row.delivered = c.delivered;
    if (blocks_[i].eb_count > 0) {
      row.emitted = c.stream.health().emitted;
      if (row.emitted > 0) {
        c.stream.recon_state().snapshot_stats(stats);
        row.evidence_fraction = stats.evidence_fraction;
        row.max_gap_hours = stats.max_gap_seconds / 3600.0;
      }
      if (c.classified) {
        row.cls = result_.outcomes[i].cls;
        row.degradation = result_.degradation.blocks[i];
      }
    }
  }
}

std::span<const double> StreamingFleet::emitted_series(std::size_t i) const {
  if (cells_.empty()) return {};
  const Cell& c = cells_[i];
  if (blocks_[i].eb_count == 0) return {};
  return c.stream.series().first(c.stream.recon_state().emitted());
}

template <class Self, class IO>
void StreamingFleet::fields(Self& self, IO& io, probe::ProbeScratch* scratch) {
  const char* const foreign =
      "fleet snapshot was written under a different configuration";
  std::uint64_t n_cells = self.cells_.size();
  io.begin_section(util::state_tag("FLTM"));
  io.expect(self.blocks_.size(), foreign);
  io.expect(self.window_.start, foreign);
  io.expect(self.window_.end, foreign);
  io.expect(self.classify_window_.start, foreign);
  io.expect(self.classify_window_.end, foreign);
  // 0 one window, 2 split windows.  1 was a retired union-window mode
  // whose cells forked their classification from the detection pass;
  // its images are foreign, and the tools start fresh.
  io.expect(static_cast<std::uint8_t>(self.split_ ? 2 : 0), foreign);
  io.i64(self.clock_);
  io.u64(self.epoch_index_);
  io.u64(n_cells);
  io.end_section();
  if (n_cells == 0) return;  // saved before the first advance
  if constexpr (IO::kReading) {
    if (n_cells != self.blocks_.size()) {
      util::bad_value("fleet snapshot cell count does not match");
    }
    self.cells_.resize(self.blocks_.size());
  }

  io.begin_section(util::state_tag("CELL"));
  for (std::size_t i = 0; i < self.cells_.size(); ++i) {
    auto& c = self.cells_[i];
    const bool probed = self.blocks_[i].eb_count > 0;
    bool begun = true;  // the wire bit: every saved cell was begun
    io.flags(begun, c.active, c.classified, c.screened, c.watched);
    if constexpr (IO::kReading) {
      // The first advance begins every cell; a never-responding block's
      // cell is classified then and carries no stream.
      if (!begun || (!probed && (c.active || !c.classified))) {
        util::bad_value("inconsistent cell flags in fleet snapshot");
      }
      // Rebuild the config-derived skeleton exactly as the first advance
      // did, then overwrite the mutable state.
      self.bind_cell(i, *scratch);
    }
    io.u64(c.delivered);
    // The watch maps its CUSUM's index k to sample trend_base + k.
    io.index(c.trend_fed, 0, self.store_.stride() + 1);
    io.index(c.trend_base, 0, c.trend_fed + 1);
    io.f64(c.tsum);
    io.f64(c.tsum2);
    io.u64(c.tn);
    io.u64(c.reported);
    // The provisional CUSUM exists once the watch fed it (tn > 0); the
    // stream only while the cell still ingests rounds; a mid-run verdict
    // (split windows) only for probed blocks — eb_count == 0 cells
    // classify trivially and carry the default verdict.
    if (c.tn > 0) io.nested(c.cusum);
    if (c.active) io.nested(c.stream);
    if (c.classified && probed) {
      core::fields(io, self.result_.outcomes[i].cls);
      core::fields(io, self.result_.degradation.blocks[i]);
    }
  }
  io.end_section();
}

void StreamingFleet::save(util::StateWriter& w) const {
  assert(!finished_);
  fields(*this, w, nullptr);
}

void StreamingFleet::restore(util::StateReader& r) {
  assert(!finished_ && cells_.empty());
  probe::ProbeScratch scratch;
  try {
    fields(*this, r, &scratch);
  } catch (...) {
    // Back to the engine as constructed: the next advance re-begins
    // every cell and overwrites each row it touched.
    cells_.clear();
    clock_ = window_.start;
    epoch_index_ = 0;
    throw;
  }
}

}  // namespace diurnal::core
