#include "core/snapshot_server.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/digest.h"

namespace diurnal::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Adds a writer-thread interval to a cumulative ServeStats timer.
void add_seconds(std::atomic<double>& total, Clock::duration d) {
  total.fetch_add(std::chrono::duration<double>(d).count(),
                  std::memory_order_relaxed);
}

bool alarm_before(const ProvisionalChange& a, const ProvisionalChange& b) {
  if (a.alarm != b.alarm) return a.alarm < b.alarm;
  return a.id.id() < b.id.id();
}

bool alarm_by_block(const ProvisionalChange& a, const ProvisionalChange& b) {
  if (a.id.id() != b.id.id()) return a.id.id() < b.id.id();
  if (a.alarm != b.alarm) return a.alarm < b.alarm;
  return a.start < b.start;
}

void hash_classification(Fnv1a& f, const BlockClassification& c) {
  f.boolean(c.responsive);
  f.boolean(c.diurnal);
  f.boolean(c.wide_swing);
  f.boolean(c.change_sensitive);
  f.boolean(c.low_confidence);
  f.f64(c.evidence_fraction);
}

void hash_degradation(Fnv1a& f, const fault::BlockDegradation& d) {
  f.i64(d.configured_observers);
  f.i64(d.live_observers);
  f.i64(d.partial_observers);
  f.u64(d.dropped_observations);
  f.u64(d.corrupted_observations);
  f.f64(d.evidence_fraction);
  f.f64(d.max_gap_hours);
  f.boolean(d.low_confidence);
}

}  // namespace

const EpochSnapshot::Row* EpochSnapshot::block(net::BlockId id) const {
  const auto it = index_->find(id.id());
  if (it == index_->end()) return nullptr;
  return &rows_[it->second];
}

std::span<const double> EpochSnapshot::trend(net::BlockId id) const {
  const auto it = index_->find(id.id());
  if (it == index_->end()) return {};
  const TrendRef& t = trend_refs_[it->second];
  return {trend_data_.data() + t.offset, t.len};
}

util::SimTime EpochSnapshot::trend_start(net::BlockId id) const {
  const auto it = index_->find(id.id());
  if (it == index_->end()) return 0;
  return trend_refs_[it->second].start;
}

std::span<const ProvisionalChange> EpochSnapshot::alarms_for(
    net::BlockId id) const {
  const auto lo = std::lower_bound(
      alarms_by_block_.begin(), alarms_by_block_.end(), id.id(),
      [](const ProvisionalChange& a, std::uint32_t v) { return a.id.id() < v; });
  auto hi = lo;
  while (hi != alarms_by_block_.end() && hi->id.id() == id.id()) ++hi;
  return {alarms_by_block_.data() +
              static_cast<std::size_t>(lo - alarms_by_block_.begin()),
          static_cast<std::size_t>(hi - lo)};
}

const CellQueryStats* EpochSnapshot::cell(geo::GridCell c) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), c,
      [](const CellQueryStats& s, geo::GridCell v) {
        if (s.cell.lat_idx != v.lat_idx) return s.cell.lat_idx < v.lat_idx;
        return s.cell.lon_idx < v.lon_idx;
      });
  if (it == cells_.end() || !(it->cell == c)) return nullptr;
  return &*it;
}

std::uint64_t EpochSnapshot::answers_digest() const {
  // Field by field over the whole query surface.
  Fnv1a f;
  f.u64(scorecard_.epoch_index);
  f.i64(scorecard_.clock);
  f.u64(scorecard_.observations_total);
  f.boolean(scorecard_.classification_complete);
  f.i64(scorecard_.funnel.routed);
  f.i64(scorecard_.funnel.responsive);
  f.i64(scorecard_.funnel.diurnal);
  f.i64(scorecard_.funnel.wide_swing);
  f.i64(scorecard_.funnel.change_sensitive);
  f.i64(scorecard_.funnel.low_confidence);
  f.u64(scorecard_.blocks);
  f.u64(scorecard_.blocks_active);
  f.u64(scorecard_.blocks_watched);
  f.u64(scorecard_.blocks_classified);
  f.u64(scorecard_.alarms_down);
  f.u64(scorecard_.alarms_up);
  f.f64(scorecard_.mean_evidence_fraction);
  f.u64(scorecard_.low_evidence_blocks);
  for (const Row& r : rows_) {
    f.u64(r.id.id());
    f.boolean(r.begun);
    f.boolean(r.active);
    f.boolean(r.classified);
    f.boolean(r.watched);
    f.u64(r.delivered);
    f.u64(r.emitted);
    f.f64(r.evidence_fraction);
    f.f64(r.max_gap_hours);
    hash_classification(f, r.cls);
    hash_degradation(f, r.degradation);
  }
  for (const TrendRef& t : trend_refs_) {
    f.u64(t.len);
    f.i64(t.start);
  }
  for (const double v : trend_data_) f.f64(v);
  for (const ProvisionalChange& a : alarms_) {
    f.u64(a.id.id());
    f.i64(a.start);
    f.i64(a.alarm);
    f.i64(a.end);
    f.boolean(a.direction == analysis::ChangeDirection::kUp);
    f.f64(a.amplitude);
  }
  for (const CellQueryStats& c : cells_) {
    f.i64(c.cell.lat_idx);
    f.i64(c.cell.lon_idx);
    f.i64(c.blocks);
    f.i64(c.watched);
    f.i64(c.classified);
    f.i64(c.change_sensitive);
    f.i64(c.alarms_down);
    f.i64(c.alarms_up);
  }
  return f.h;
}

std::size_t EpochSnapshot::bytes() const noexcept {
  return rows_.capacity() * sizeof(Row) +
         trend_refs_.capacity() * sizeof(TrendRef) +
         trend_data_.capacity() * sizeof(double) +
         (alarms_.capacity() + alarms_by_block_.capacity()) *
             sizeof(ProvisionalChange) +
         cells_.capacity() * sizeof(CellQueryStats) + image_.capacity();
}

SnapshotServer::SnapshotServer(std::span<const sim::BlockProfile> blocks,
                               const FleetConfig& config,
                               const ServeConfig& serve)
    : blocks_(blocks),
      config_(config),
      serve_(serve),
      engine_(blocks, config),
      feed_(serve.feed_capacity) {
  auto index = std::make_shared<std::unordered_map<std::uint32_t, std::size_t>>();
  index->reserve(blocks_.size());
  cell_of_.reserve(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    index->emplace(blocks_[i].id.id(), i);
    cell_of_.push_back(blocks_[i].cell());
  }
  index_ = std::move(index);
}

SnapshotServer::~SnapshotServer() { stop(); }

void SnapshotServer::restore(util::StateReader& r) {
  assert(!started_);
  engine_.restore(r);
}

void SnapshotServer::save(util::StateWriter& w) const {
  assert(!writer_.joinable() && !finished_);
  engine_.save(w);
}

void SnapshotServer::start() {
  assert(!started_ && !finished_);
  started_ = true;
  feed_from_ = engine_.clock();
  writer_ = std::thread([this] { writer_loop(); });
}

bool SnapshotServer::feed(util::SimTime until) { return feed_.push(until); }

std::size_t SnapshotServer::feed_all() {
  const std::int64_t ep =
      serve_.epoch_duration > 0 ? serve_.epoch_duration : util::kSecondsPerDay;
  std::size_t n = 0;
  for (util::SimTime t = feed_from_ + ep;; t += ep) {
    const util::SimTime tick = std::min<util::SimTime>(t, window_end());
    if (!feed_.push(tick)) break;
    ++n;
    if (tick >= window_end()) break;
  }
  return n;
}

void SnapshotServer::writer_loop() {
  while (auto until = feed_.pop()) {
    const auto t0 = Clock::now();
    EpochReport rep = engine_.advance_to(*until);
    const auto t1 = Clock::now();
    observations_.fetch_add(rep.observations, std::memory_order_relaxed);
    auto snap = build_snapshot(rep, nullptr);
    add_seconds(advance_seconds_, t1 - t0);
    add_seconds(publish_seconds_, Clock::now() - t1);
    snapshot_bytes_.store(snap->bytes(), std::memory_order_relaxed);
    epochs_.fetch_add(1, std::memory_order_relaxed);
    registry_.publish(std::move(snap));
  }
}

std::shared_ptr<EpochSnapshot> SnapshotServer::build_snapshot(
    const EpochReport& rep, FleetResult* final) {
  auto snap = std::make_shared<EpochSnapshot>();
  snap->index_ = index_;
  // Live ingest counters come from the engine before finalize spends
  // it; a final snapshot's verdicts, series and funnel from the
  // authoritative result after.
  engine_.extract_rows(snap->rows_);
  if (final != nullptr) {
    *final = engine_.finalize();
    snap->final_ = true;
  }

  // Trend tails from the stable emitted prefixes.
  snap->trend_refs_.resize(snap->rows_.size());
  for (std::size_t i = 0; i < snap->rows_.size(); ++i) {
    if (final == nullptr) {
      fill_trend(*snap, i, engine_.emitted_series(i));
      continue;
    }
    EpochSnapshot::Row& row = snap->rows_[i];
    const auto s = final->series.series(i);
    row.active = false;
    row.classified = true;
    row.cls = final->outcomes[i].cls;
    row.degradation = final->degradation.blocks[i];
    row.emitted = s.size();
    if (blocks_[i].eb_count > 0) {
      row.evidence_fraction = row.degradation.evidence_fraction;
      row.max_gap_hours = row.degradation.max_gap_hours;
    }
    fill_trend(*snap, i, s);
  }

  // Cumulative alarm log: merge this epoch's (already sorted) batch.
  const auto mid = static_cast<std::ptrdiff_t>(alarm_log_.size());
  alarm_log_.insert(alarm_log_.end(), rep.provisional.begin(),
                    rep.provisional.end());
  std::inplace_merge(alarm_log_.begin(), alarm_log_.begin() + mid,
                     alarm_log_.end(), alarm_before);
  snap->alarms_ = alarm_log_;

  fill_rollups(*snap);
  snap->scorecard_.epoch_index = rep.epoch_index;
  snap->scorecard_.clock = rep.epoch_end;
  snap->scorecard_.observations_total =
      observations_.load(std::memory_order_relaxed);
  snap->scorecard_.classification_complete = rep.classification_complete;
  snap->scorecard_.funnel = final != nullptr ? final->funnel : rep.funnel;

  if (final == nullptr && serve_.keep_image) {
    const auto t0 = Clock::now();
    util::StateWriter w;
    engine_.save(w);
    snap->image_ = w.take();
    add_seconds(image_seconds_, Clock::now() - t0);
    image_bytes_.store(snap->image_.size(), std::memory_order_relaxed);
  }
  return snap;
}

void SnapshotServer::fill_trend(EpochSnapshot& snap, std::size_t i,
                                std::span<const double> s) const {
  const std::int64_t step = config_.recon.sample_step;
  const std::size_t len =
      serve_.trend_tail == 0 ? s.size() : std::min(serve_.trend_tail, s.size());
  EpochSnapshot::TrendRef& t = snap.trend_refs_[i];
  t.offset = snap.trend_data_.size();
  t.len = len;
  const std::size_t first = s.size() - len;
  t.start = engine_.window_start() +
            static_cast<std::int64_t>(first) * (step > 0 ? step : 1);
  snap.trend_data_.insert(snap.trend_data_.end(), s.end() - len, s.end());
}

void SnapshotServer::fill_rollups(EpochSnapshot& snap) {
  snap.alarms_by_block_ = snap.alarms_;
  std::sort(snap.alarms_by_block_.begin(), snap.alarms_by_block_.end(),
            alarm_by_block);

  ServeScorecard& sc = snap.scorecard_;
  std::unordered_map<geo::GridCell, CellQueryStats> cells;
  cells.reserve(64);
  const double floor = config_.classifier.min_evidence_fraction;
  double evidence_sum = 0.0;
  std::size_t evidence_n = 0;
  for (std::size_t i = 0; i < snap.rows_.size(); ++i) {
    const EpochSnapshot::Row& row = snap.rows_[i];
    CellQueryStats& cs = cells[cell_of_[i]];
    cs.cell = cell_of_[i];
    ++cs.blocks;
    ++sc.blocks;
    if (row.active) ++sc.blocks_active;
    if (row.watched) {
      ++cs.watched;
      ++sc.blocks_watched;
    }
    if (row.classified) {
      ++cs.classified;
      ++sc.blocks_classified;
      if (row.cls.change_sensitive) ++cs.change_sensitive;
    }
    if (row.emitted > 0) {
      evidence_sum += row.evidence_fraction;
      ++evidence_n;
      if (row.evidence_fraction < floor) ++sc.low_evidence_blocks;
    }
  }
  sc.mean_evidence_fraction =
      evidence_n > 0 ? evidence_sum / static_cast<double>(evidence_n) : 0.0;
  for (const ProvisionalChange& a : snap.alarms_) {
    const bool up = a.direction == analysis::ChangeDirection::kUp;
    if (up) {
      ++sc.alarms_up;
    } else {
      ++sc.alarms_down;
    }
    const auto it = index_->find(a.id.id());
    if (it == index_->end()) continue;
    CellQueryStats& cs = cells[cell_of_[it->second]];
    if (up) {
      ++cs.alarms_up;
    } else {
      ++cs.alarms_down;
    }
  }
  snap.cells_.reserve(cells.size());
  for (auto& [cell, stats] : cells) snap.cells_.push_back(stats);
  std::sort(snap.cells_.begin(), snap.cells_.end(),
            [](const CellQueryStats& a, const CellQueryStats& b) {
              if (a.cell.lat_idx != b.cell.lat_idx) {
                return a.cell.lat_idx < b.cell.lat_idx;
              }
              return a.cell.lon_idx < b.cell.lon_idx;
            });
}

FleetResult SnapshotServer::drain() {
  assert(!finished_);
  feed_.close();
  if (writer_.joinable()) writer_.join();

  // The final snapshot: every epoch ingested, classification complete,
  // no new alarms and no image (a completed run has nothing to resume).
  EpochReport last;
  last.epoch_index = epochs_.load(std::memory_order_relaxed);
  last.epoch_end = window_end();
  last.classification_complete = true;
  FleetResult res;
  auto snap = build_snapshot(last, &res);
  finished_ = true;

  snapshot_bytes_.store(snap->bytes(), std::memory_order_relaxed);
  registry_.publish(std::move(snap));
  registry_.close();
  return res;
}

void SnapshotServer::stop() {
  feed_.close();
  if (writer_.joinable()) writer_.join();
  registry_.close();
}

ServeStats SnapshotServer::stats() const {
  ServeStats s;
  s.epochs_published = epochs_.load(std::memory_order_relaxed);
  s.observations = observations_.load(std::memory_order_relaxed);
  s.feed_accepted = feed_.pushed();
  s.feed_waits = feed_.push_waits();
  s.feed_peak_depth = feed_.peak_size();
  s.feed_capacity = feed_.capacity();
  s.snapshot_bytes = snapshot_bytes_.load(std::memory_order_relaxed);
  s.advance_seconds = advance_seconds_.load(std::memory_order_relaxed);
  s.publish_seconds = publish_seconds_.load(std::memory_order_relaxed);
  s.image_seconds = image_seconds_.load(std::memory_order_relaxed);
  s.image_bytes = image_bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace diurnal::core
