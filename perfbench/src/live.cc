// live_hourly: core::SnapshotServer over a resident world, hourly epochs.
//
// One session has two phases.
//   Open loop: the main thread feeds one epoch tick per tick interval on
//   a fixed wall-clock schedule; one reader thread issues the
//   block/trend/alarm/cell/scorecard query mix at a fixed rate.  Ticks
//   and queries are timed from their due time.  The reader also polls
//   the latest snapshot between queries, so it records when each epoch
//   became visible (freshness) and how large each snapshot was.
//   Restart: stop(), release the stopped server, restore a fresh one
//   from the latest snapshot's image, and replay the rest of the window
//   closed-loop with the feed kept full (catch-up), then drain; the
//   drained result must equal core::run_fleet over the same world.
//
// Traced run: the same session with per-query spans, followed by a
// re-drive of the catch-up epochs composed here from the engine's public
// calls (advance_to, extract_rows, emitted_series copies, the alarm and
// cell rollups, save), one span per call.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/digest.h"
#include "core/snapshot_server.h"
#include "core/streaming.h"
#include "sim/world.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/state_io.h"
#include "workloads.h"

namespace perfbench {

namespace core = diurnal::core;
namespace sim = diurnal::sim;
using diurnal::util::SimTime;

unsigned live_engine_threads() {
  // Feeder and reader take two of the CPUs; the writer runs the engine
  // itself when one thread is left, else it waits on the engine workers.
  const unsigned n = nproc();
  return n > 3 ? n - 2 : 1;
}

namespace {

struct LiveSpec {
  long blocks = 200;
  const char* dataset = "2020m1-ejnw";
  std::int64_t epoch = 3600;    ///< simulated seconds per epoch
  std::size_t open_epochs = 240;  ///< epochs fed open-loop before restart
  /// Wall interval between open-loop ticks: about 1.6x the closed-loop
  /// service time of an epoch on a 4-CPU host (epoch_service_ms on the
  /// detail line), so the server runs loaded but unsaturated.
  double tick_ms = 20.0;
  /// Reader query rate: queries 50 us apart against a sub-microsecond
  /// service time, so the reader never falls behind its schedule.
  double query_hz = 20000.0;
};

LiveSpec spec_for(const Options& opt) {
  LiveSpec s;
  if (opt.tiny) {
    s.blocks = 40;
    s.open_epochs = 48;
    s.tick_ms = 4.0;
  }
  return s;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

enum QueryKind { kBlock, kTrend, kAlarms, kCell, kScorecard, kKinds };
constexpr const char* kKindSpan[kKinds] = {"core.query_block", "core.query_trend",
                                           "core.query_alarms", "core.query_cell",
                                           "core.query_scorecard"};

/// Everything the reader thread records.  Written only by the reader;
/// read by the main thread after join (or through the atomics).
struct ReaderLog {
  std::vector<double> latency_us;   ///< query done - due
  std::vector<double> lateness_us;  ///< query issued - due
  /// Traced run: one span per query with children for the pin
  /// (snapshot()) and the accessor call.
  Tracer spans{false};
  /// First time each epoch (by index) was seen by the reader.
  std::unordered_map<std::size_t, Clock::time_point> first_seen;
  std::size_t excluded = 0;   ///< queries before the first publish
  std::size_t attempted = 0;  ///< queries after the first publish
  std::size_t failures = 0;   ///< of those: no snapshot, or no row/cell
  std::size_t snapshot_bytes_peak = 0;
  std::uint64_t sink = 0;  ///< keeps the answers live
};

class Reader {
 public:
  Reader(const std::vector<diurnal::net::BlockId>& ids,
         const std::vector<diurnal::geo::GridCell>& cells, std::uint64_t seed,
         bool traced)
      : ids_(ids), cells_(cells), rng_(seed) {
    log_.spans = Tracer(traced);
  }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader() { finish(); }

  /// Starts the thread.  Queries are due every 1/query_hz from t0 while
  /// `querying` is set; otherwise the reader only samples snapshots.
  void start(Clock::time_point t0, double query_hz, std::size_t expected) {
    t0_ = t0;
    interval_ = 1.0 / query_hz;
    // Recording must not reallocate while queries are being timed.
    log_.latency_us.reserve(expected);
    log_.lateness_us.reserve(expected);
    log_.spans.reserve(3 * expected);
    thread_ = std::thread([this] { loop(); });
  }
  void serve(core::SnapshotServer* s) { server_.store(s); }
  /// Stops using the current server and returns once no call into it is
  /// in flight, so the caller may destroy it.  The thread must be running.
  void detach() {
    server_.store(nullptr);
    const std::uint64_t seen = passes_.load();
    while (passes_.load() == seen) std::this_thread::yield();
  }
  void stop_querying() { querying_.store(false); }
  std::size_t epochs_seen() const { return seen_.load(); }
  void finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  ReaderLog& log() { return log_; }

 private:
  void observe(const std::shared_ptr<const core::EpochSnapshot>& snap,
               Clock::time_point now) {
    const std::size_t e = snap->final_epoch() ? SIZE_MAX : snap->epoch_index();
    if (e == last_epoch_) return;
    last_epoch_ = e;
    log_.snapshot_bytes_peak = std::max(log_.snapshot_bytes_peak, snap->bytes());
    if (e != SIZE_MAX && log_.first_seen.emplace(e, now).second) {
      seen_.fetch_add(1);
    }
  }

  void poll() {
    if (core::SnapshotServer* s = server_.load()) {
      if (auto snap = s->snapshot()) observe(snap, Clock::now());
    }
    passes_.fetch_add(1);
  }

  void loop() {
    std::size_t j = 0;
    while (!stop_.load()) {
      if (!querying_.load()) {
        poll();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      // Spin to the due time, polling the latest snapshot meanwhile.
      const Clock::time_point due =
          t0_ + to_duration(interval_ * static_cast<double>(j));
      while (Clock::now() < due && querying_.load()) {
        if (stop_.load()) return;
        poll();
      }
      if (!querying_.load()) continue;
      query(due, j);
      passes_.fetch_add(1);
      ++j;
    }
  }

  void query(Clock::time_point due, std::size_t j) {
    core::SnapshotServer* s = server_.load();
    if (s == nullptr) return;  // detached as querying stopped
    const auto kind = static_cast<QueryKind>(rng_() % kKinds);
    const auto& id = ids_[rng_() % ids_.size()];
    const auto& cell = cells_[rng_() % cells_.size()];
    const Clock::time_point issue = Clock::now();
    Tracer& tr = log_.spans;
    const auto qid = static_cast<std::int64_t>(j);
    Tracer::Scope query_span(tr, "core.query", qid);
    std::shared_ptr<const core::EpochSnapshot> snap;
    {
      Tracer::Scope span(tr, "core.query_pin", qid);
      snap = s->snapshot();
    }
    if (!snap && last_epoch_ == kNone) {
      ++log_.excluded;
      return;
    }
    ++log_.attempted;
    if (!snap) {
      ++log_.failures;
      return;
    }
    bool ok = true;
    {
      Tracer::Scope span(tr, kKindSpan[kind], qid);
      switch (kind) {
        case kBlock: {
          const auto* row = snap->block(id);
          ok = row != nullptr;
          if (ok) log_.sink += row->delivered;
          break;
        }
        case kTrend:
          log_.sink += snap->trend(id).size();
          break;
        case kAlarms:
          log_.sink += snap->alarms_for(id).size() + snap->alarms().size();
          break;
        case kCell: {
          const auto* c = snap->cell(cell);
          ok = c != nullptr;
          if (ok) log_.sink += static_cast<std::uint64_t>(c->blocks);
          break;
        }
        case kScorecard:
          log_.sink += snap->scorecard().blocks_watched;
          break;
        case kKinds:
          break;
      }
    }
    const Clock::time_point done = Clock::now();
    if (!ok) ++log_.failures;
    log_.latency_us.push_back(us_between(due, done));
    log_.lateness_us.push_back(us_between(due, issue));
    observe(snap, done);
  }

  static constexpr std::size_t kNone = SIZE_MAX - 1;
  const std::vector<diurnal::net::BlockId>& ids_;
  const std::vector<diurnal::geo::GridCell>& cells_;
  diurnal::util::Xoshiro256 rng_;
  Clock::time_point t0_{};
  double interval_ = 1.0;
  std::size_t last_epoch_ = kNone;
  ReaderLog log_;
  std::atomic<core::SnapshotServer*> server_{nullptr};
  std::atomic<bool> querying_{true};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> seen_{0};
  /// Calls that may have used server_, counted once each has returned.
  std::atomic<std::uint64_t> passes_{0};
  std::thread thread_;  // last: joined before the members it uses die
};

struct Session {
  std::vector<double> freshness_ms;
  std::vector<double> tick_lateness_us;
  double catchup_epochs_per_s = 0.0;
  double catchup_wall_s = 0.0;
  std::size_t catchup_epochs = 0;
  double restore_ms = 0.0;
  /// Larger of the two phases' VmHWM: open loop (first server) and
  /// restore plus catch-up (restarted server, the first one released).
  double peak_mb = 0.0;
  std::uint64_t digest = 0;
  core::ServeStats open_stats;
  /// The image the restart restored; kept only by a traced session.
  std::vector<std::uint8_t> image;
  ReaderLog reader;
};

Session run_session(const sim::World& world, const core::FleetConfig& fc,
                    const core::ServeConfig& sv, const LiveSpec& spec,
                    const std::vector<diurnal::net::BlockId>& ids,
                    const std::vector<diurnal::geo::GridCell>& cells,
                    std::uint64_t seed, bool traced) {
  Session out;
  malloc_trim(0);  // as in the batch drives: measure this session's live set
  diurnal::util::reset_peak_rss();
  // The restarted server outlives the reader thread that polls it; the
  // first one is released once the reader has detached from it.
  std::optional<core::SnapshotServer> first(std::in_place, world, fc, sv);
  std::optional<core::SnapshotServer> second;
  const SimTime start = first->window_start();
  Reader reader(ids, cells, seed, traced);
  reader.serve(&*first);
  first->start();

  // Open loop: tick k is due at t0 + k * tick and advances to epoch k+1.
  const auto tick = to_duration(spec.tick_ms * 1e-3);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const double open_s = spec.tick_ms * 1e-3 * static_cast<double>(spec.open_epochs);
  reader.start(t0, spec.query_hz,
               static_cast<std::size_t>(spec.query_hz * (open_s + 1.0)));
  std::vector<Clock::time_point> due(spec.open_epochs);
  for (std::size_t k = 0; k < spec.open_epochs; ++k) {
    due[k] = t0 + tick * static_cast<long>(k);
    std::this_thread::sleep_until(due[k]);
    out.tick_lateness_us.push_back(us_between(due[k], Clock::now()));
    first->feed(start + static_cast<SimTime>(k + 1) * spec.epoch);
  }
  first->wait_for_epoch(spec.open_epochs);
  // Let the reader see the last open-loop epoch before it stops querying.
  const auto seen_deadline = Clock::now() + std::chrono::seconds(2);
  while (reader.epochs_seen() < spec.open_epochs && Clock::now() < seen_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  reader.stop_querying();
  out.open_stats = first->stats();
  first->stop();
  const double open_peak_mb = peak_rss_mb();
  std::vector<std::uint8_t> image;
  {
    const auto latest = first->snapshot();
    if (!latest || latest->image().empty()) {
      throw std::runtime_error("open-loop server published no restorable image");
    }
    image.assign(latest->image().begin(), latest->image().end());
  }
  reader.detach();
  first.reset();

  // Restart from the image and catch up closed-loop; the peak of this
  // phase is the restarted server's alone.
  malloc_trim(0);
  diurnal::util::reset_peak_rss();
  second.emplace(world, fc, sv);
  {
    diurnal::util::StateReader r(image);
    const auto r0 = Clock::now();
    second->restore(r);
    out.restore_ms = seconds_between(r0, Clock::now()) * 1e3;
  }
  if (traced) {
    out.image = std::move(image);
  } else {
    std::vector<std::uint8_t>().swap(image);
  }
  reader.serve(&*second);
  second->start();
  const auto c0 = Clock::now();
  const std::size_t n = second->feed_all();
  second->wait_for_epoch(n);
  out.catchup_wall_s = seconds_between(c0, Clock::now());
  out.catchup_epochs = n;
  out.catchup_epochs_per_s = static_cast<double>(n) / out.catchup_wall_s;
  out.peak_mb = std::max(open_peak_mb, peak_rss_mb());
  out.digest = core::fleet_digest(second->drain());
  reader.finish();

  // Freshness: due time of each open-loop tick to the first time the
  // reader saw its snapshot (an epoch never seen on its own was visible
  // no later than the next one seen).
  ReaderLog& log = reader.log();
  std::optional<Clock::time_point> later;
  out.freshness_ms.resize(spec.open_epochs);
  std::size_t filled = 0;
  for (std::size_t k = spec.open_epochs; k-- > 0;) {
    const auto it = log.first_seen.find(k);
    if (it != log.first_seen.end()) later = it->second;
    if (!later) continue;
    out.freshness_ms[k] = seconds_between(due[k], *later) * 1e3;
    ++filled;
  }
  out.freshness_ms.resize(filled == spec.open_epochs ? filled : 0);
  out.reader = std::move(log);
  return out;
}

/// Snapshot-publish work composed from the engine's public calls over
/// the epochs after `image`, mirroring what the server's writer does per
/// epoch: advance, row extraction, trend-tail copies, the cumulative
/// alarm log with its by-block order and cell rollups, and the state
/// image.  Returns the finalize digest.
struct PublishTrace {
  std::uint64_t digest = 0;
  double wall_s = 0.0;
  std::size_t alarms = 0;
  std::size_t image_peak_bytes = 0;
};

PublishTrace traced_publish(const sim::World& world, const core::FleetConfig& fc,
                            const core::ServeConfig& sv,
                            const std::vector<std::uint8_t>& image, Tracer& tr) {
  // What one epoch publishes, built fresh each epoch like a server
  // snapshot; the previous one is released when the next replaces it.
  struct Published {
    std::vector<core::StreamingFleet::BlockSnapshotRow> rows;
    std::vector<double> trend;
    std::vector<core::ProvisionalChange> alarms, by_block;
    std::vector<core::CellQueryStats> cells;
    std::vector<std::uint8_t> image;
  };
  PublishTrace out;
  const auto& blocks = world.blocks();
  core::StreamingFleet engine(world, fc);
  {
    diurnal::util::StateReader r(image);
    engine.restore(r);
  }
  std::vector<core::ProvisionalChange> log;  // cumulative, (alarm, id) order
  std::unique_ptr<Published> current;
  const auto t0 = Clock::now();
  for (SimTime t = engine.clock() + sv.epoch_duration;; t += sv.epoch_duration) {
    const SimTime until = std::min(t, engine.window_end());
    const auto epoch = static_cast<std::int64_t>(
        (engine.clock() - engine.window_start()) / sv.epoch_duration);
    auto next = std::make_unique<Published>();
    core::EpochReport rep;
    {
      Tracer::Scope span(tr, "core.advance", epoch);
      rep = engine.advance_to(until);
    }
    out.alarms += rep.provisional.size();
    {
      Tracer::Scope span(tr, "core.extract_rows", epoch);
      engine.extract_rows(next->rows);
    }
    {
      Tracer::Scope span(tr, "core.trend_copy", epoch);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto s = engine.emitted_series(i);
        const std::size_t len = std::min(sv.trend_tail, s.size());
        next->trend.insert(next->trend.end(), s.end() - static_cast<long>(len),
                           s.end());
      }
    }
    {
      Tracer::Scope span(tr, "core.rollup", epoch);
      const auto mid = static_cast<long>(log.size());
      log.insert(log.end(), rep.provisional.begin(), rep.provisional.end());
      std::inplace_merge(log.begin(), log.begin() + mid, log.end(),
                         [](const auto& a, const auto& b) {
                           return a.alarm != b.alarm ? a.alarm < b.alarm
                                                     : a.id.id() < b.id.id();
                         });
      next->alarms = log;
      next->by_block = log;
      std::sort(next->by_block.begin(), next->by_block.end(),
                [](const auto& a, const auto& b) {
                  if (a.id.id() != b.id.id()) return a.id.id() < b.id.id();
                  return a.alarm != b.alarm ? a.alarm < b.alarm : a.start < b.start;
                });
      std::unordered_map<diurnal::geo::GridCell, core::CellQueryStats> cells;
      for (std::size_t i = 0; i < next->rows.size(); ++i) {
        auto& c = cells[blocks[i].cell()];
        c.cell = blocks[i].cell();
        ++c.blocks;
        c.watched += next->rows[i].watched;
        c.classified += next->rows[i].classified;
      }
      for (const auto& [cell, c] : cells) next->cells.push_back(c);
      std::sort(next->cells.begin(), next->cells.end(), [](const auto& a, const auto& b) {
        return a.cell.lat_idx != b.cell.lat_idx ? a.cell.lat_idx < b.cell.lat_idx
                                                : a.cell.lon_idx < b.cell.lon_idx;
      });
    }
    {
      Tracer::Scope span(tr, "util.state_save", epoch);
      diurnal::util::StateWriter w;
      engine.save(w);
      next->image = w.take();
    }
    out.image_peak_bytes = std::max(out.image_peak_bytes, next->image.size());
    current = std::move(next);
    if (until >= engine.window_end()) break;
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.digest = core::fleet_digest(engine.finalize());
  return out;
}

}  // namespace

Report run_live(const Options& opt) {
  Report rep;
  const LiveSpec spec = spec_for(opt);
  core::FleetConfig fc;
  fc.dataset = core::dataset(spec.dataset);
  fc.threads = static_cast<int>(live_engine_threads());
  core::ServeConfig sv;
  sv.epoch_duration = spec.epoch;
  sim::WorldConfig wc;
  wc.seed = opt.seed;
  wc.num_blocks = static_cast<int>(spec.blocks);

  // Set-up: the resident world and a server over it.  As in the batch
  // workloads, a burst of repetitions runs before the first session and
  // after every session, and setup_s is the median of all.
  std::vector<double> setup;
  std::optional<sim::World> world;
  auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t0 = Clock::now();
      world.emplace(wc);
      const core::SnapshotServer server(*world, fc, sv);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
  };
  set_up();
  // Untimed warm-up: one simulated day of epochs on a server over the
  // same world (threads, allocator arenas and snapshot buffers warm).
  {
    core::SnapshotServer server(*world, fc, sv);
    server.start();
    for (int k = 1; k <= 24; ++k) {
      server.feed(server.window_start() + k * spec.epoch);
    }
    server.wait_for_epoch(24);
    server.stop();
  }
  std::vector<diurnal::net::BlockId> ids;
  std::vector<diurnal::geo::GridCell> cells;
  for (const auto& b : world->blocks()) {
    ids.push_back(b.id);
    cells.push_back(b.cell());
  }
  const std::size_t total_epochs = static_cast<std::size_t>(
      (fc.dataset.window().end - fc.dataset.window().start + spec.epoch - 1) /
      spec.epoch);

  // Untimed reference: the batch drive over the same world.
  core::FleetConfig ref_fc = fc;
  ref_fc.threads = static_cast<int>(nproc());
  std::uint64_t reference = core::fleet_digest(core::run_fleet(*world, ref_fc));
  if (opt.corrupt_reference) reference ^= 1;

  std::vector<double> freshness, tick_late, query_late, latency, catchup, peak,
      restore, rate, service;
  std::size_t queries = 0, excluded = 0, snapshot_peak = 0, sessions = 0;
  std::uint64_t feed_waits = 0;
  std::size_t feed_peak_depth = 0;
  std::map<std::string, double> layer;
  const auto deadline = Clock::now() + to_duration(opt.seconds);
  do {
    Session s = run_session(*world, fc, sv, spec, ids, cells,
                            opt.seed * 7919 + sessions, opt.trace);
    ++sessions;
    std::fprintf(stderr,
                 "perfbench: session %zu: catch-up %.1f epochs/s, peak %.1f MB\n",
                 sessions, s.catchup_epochs_per_s, s.peak_mb);
    rep.check(s.digest == reference, "drained serve equals run_fleet");
    rep.check(s.freshness_ms.size() == spec.open_epochs,
              "every open-loop epoch became visible to the reader");
    rep.check(s.catchup_epochs + spec.open_epochs == total_epochs,
              "restart replays exactly the remaining epochs");
    const ReaderLog& log = s.reader;
    // Each failed query counts once, against the queries attempted.
    rep.attempted += log.attempted;
    rep.failed += log.failures;
    if (log.failures > 0) rep.correct = false;
    freshness.insert(freshness.end(), s.freshness_ms.begin(), s.freshness_ms.end());
    tick_late.insert(tick_late.end(), s.tick_lateness_us.begin(), s.tick_lateness_us.end());
    query_late.insert(query_late.end(), log.lateness_us.begin(), log.lateness_us.end());
    latency.insert(latency.end(), log.latency_us.begin(), log.latency_us.end());
    queries += log.latency_us.size();
    excluded += log.excluded;
    snapshot_peak = std::max(snapshot_peak, log.snapshot_bytes_peak);
    catchup.push_back(s.catchup_epochs_per_s);
    service.push_back(s.catchup_wall_s * 1e3 / static_cast<double>(s.catchup_epochs));
    feed_waits += s.open_stats.feed_waits;
    feed_peak_depth = std::max(feed_peak_depth, s.open_stats.feed_peak_depth);
    rate.push_back(static_cast<double>(world->blocks().size()) *
                   static_cast<double>(s.catchup_epochs) /
                   static_cast<double>(total_epochs) / s.catchup_wall_s);
    peak.push_back(s.peak_mb);
    restore.push_back(s.restore_ms);

    if (opt.trace && layer.empty()) {
      Tracer tr;
      const PublishTrace p = traced_publish(*world, fc, sv, s.image, tr);
      rep.check(p.digest == reference, "traced publish re-drive equals run_fleet");
      auto p50 = [&tr](const char* name) { return median(tr.durations_ms(name)); };
      auto adv = tr.durations_ms("core.advance");
      layer["core.advance_ms_p50"] = quantile(adv, 0.5);
      layer["core.advance_ms_p90"] = quantile(adv, 0.9);
      layer["core.provisional_alarms"] = static_cast<double>(p.alarms);
      layer["core.extract_rows_ms_p50"] = p50("core.extract_rows");
      layer["core.trend_copy_ms_p50"] = p50("core.trend_copy");
      layer["util.state_save_ms_p50"] = p50("util.state_save");
      layer["util.image_mb_peak"] = static_cast<double>(p.image_peak_bytes) / (1024.0 * 1024.0);
      layer["util.state_restore_ms"] = s.restore_ms;
      layer["core.snapshot_mb_peak"] = static_cast<double>(log.snapshot_bytes_peak) / (1024.0 * 1024.0);
      layer["core.feed_waits"] = static_cast<double>(s.open_stats.feed_waits);
      layer["core.feed_peak_depth"] = static_cast<double>(s.open_stats.feed_peak_depth);
      auto p50_us = [&log](const char* name) {
        return median(log.spans.durations_ms(name)) * 1e3;
      };
      layer["core.query_pin_us_p50"] = p50_us("core.query_pin");
      for (const char* name : kKindSpan) {
        layer[std::string(name) + "_us_p50"] = p50_us(name);
      }
      std::vector<double> lat = log.latency_us;
      layer["core.query_p99_us"] = quantile(lat, 0.99);
      layer["trace.overhead_share"] = p.wall_s / s.catchup_wall_s - 1.0;
      write_spans(opt.work_dir + "/spans-" + opt.workload + "-" +
                      std::to_string(opt.seed) + ".tsv",
                  {&tr, &log.spans});
    }
    set_up();
    // A traced run measures one session plus the publish re-drive.
  } while (!opt.trace && Clock::now() < deadline);

  const double tail = supported_tail(freshness.size());
  rep.note("sessions", static_cast<double>(sessions), "count");
  rep.note("blocks", static_cast<double>(world->blocks().size()), "count");
  rep.note("engine_threads", static_cast<double>(fc.threads), "count");
  rep.note("freshness_p50_ms", quantile(freshness, 0.5), "ms");
  rep.note("freshness_p90_ms", quantile(freshness, 0.9), "ms");
  rep.note("freshness_tail_pct", tail * 100.0, "%");
  rep.note("freshness_tail_ms", quantile(freshness, tail), "ms");
  rep.note("freshness_samples", static_cast<double>(freshness.size()), "count");
  rep.note("catchup_epochs_per_s", median(catchup), "1/s");
  // Load of the open loop: closed-loop service time of an epoch against
  // the tick interval, and how often the feeder found the feed full.
  rep.note("epoch_service_ms", median(service), "ms");
  rep.note("open_loop_utilization", median(service) / spec.tick_ms, "ratio");
  rep.note("open_feed_waits", static_cast<double>(feed_waits), "count");
  rep.note("open_feed_peak_depth", static_cast<double>(feed_peak_depth), "count");
  rep.note("query_p50_us", quantile(latency, 0.5), "us");
  rep.note("queries", static_cast<double>(queries), "count");
  rep.note("queries_excluded_before_first_publish", static_cast<double>(excluded), "count");
  rep.note("tick_lateness_p50_us", quantile(tick_late, 0.5), "us");
  rep.note("tick_lateness_max_us", tick_late.empty() ? 0.0 : tick_late.back(), "us");
  rep.note("query_lateness_p50_us", quantile(query_late, 0.5), "us");
  rep.note("query_lateness_max_us", query_late.empty() ? 0.0 : query_late.back(), "us");
  rep.note("snapshot_mb_peak", static_cast<double>(snapshot_peak) / (1024.0 * 1024.0), "MB");
  rep.note("restore_ms", median(restore), "ms");
  std::printf("{\"digest\": \"%s\"}\n", core::digest_hex(reference).c_str());

  if (!opt.trace) {
    rep.add("setup_s", median(setup), "s");
    rep.add("blocks_per_s", median(rate), "blocks/s");
    rep.add("peak_rss_mb", median(peak), "MB");
  } else {
    add_layer_metrics(rep, layer);
  }
  return rep;
}

}  // namespace perfbench
