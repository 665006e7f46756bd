// Batch workloads: month_sharded and halfyear_union_ckpt.
//
// Untraced run: core::run_sharded_fleet over a lazily materialized
// universe, repeated until the time budget is spent; every repetition
// must reproduce the first one's digest, and one sampled shard is
// re-run through core::StreamingFleet over its own WorldSlice as the
// reference.  halfyear_union_ckpt also writes shard checkpoints during
// the drive and then times a resume of the finished run.
//
// Traced run: the same drive composed here from the public per-layer
// calls (WorldSlice::materialize, BlockStream, classify_block(s),
// BatchDetector, ChangeAggregator, CheckpointManager), one span per
// call.  Its merged result must hash to the untraced run's digest.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/batch_analyzer.h"
#include "analysis/block_analyzer.h"
#include "core/checkpoint.h"
#include "core/digest.h"
#include "core/shard.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "geo/countries.h"
#include "sim/world_slice.h"
#include "util/mem.h"
#include "workloads.h"

namespace perfbench {

namespace core = diurnal::core;
namespace sim = diurnal::sim;
namespace recon = diurnal::recon;
namespace analysis = diurnal::analysis;
namespace fs = std::filesystem;

unsigned batch_threads() { return nproc(); }

namespace {

struct BatchSpec {
  const char* detect = "2020m1-ejnw";
  const char* classify = nullptr;  ///< nullptr: classify on `detect`
  const char* faults = "none";
  bool checkpoint = false;
  /// Universe size (generated plus special blocks), a whole number of
  /// shards so that every wave of shards is full.
  std::size_t universe = 0;
  /// Generated blocks when set; the universe then adds the special
  /// case-study blocks, as in the golden 2,000-block world.
  long generated = 0;
  std::size_t shard_size = 0;
};

BatchSpec spec_for(const Options& opt) {
  BatchSpec s;
  if (opt.workload == "month_sharded") {
    s.universe = 16384;
    s.shard_size = 256;
  } else {
    s.detect = "2020h1-ejnw";
    s.classify = "2020m1-ejnw";
    s.faults = "flapping";
    s.checkpoint = true;
    s.universe = 6144;
    s.shard_size = 96;
  }
  if (opt.tiny) {
    // month_sharded's tiny size is the golden world: seed 1 must give
    // fleet digest f94c66488def6938.
    if (s.classify == nullptr) s.generated = 2000;
    s.universe = 256;
    s.shard_size = 64;
  }
  return s;
}

core::FleetConfig fleet_config(const BatchSpec& s, int threads) {
  core::FleetConfig fc;
  fc.dataset = core::dataset(s.detect);
  if (s.classify != nullptr) fc.classify_dataset = core::dataset(s.classify);
  if (std::strcmp(s.faults, "none") != 0) {
    fc.faults = diurnal::fault::scenario(s.faults, fc.dataset.window());
  }
  fc.threads = threads;
  return fc;
}

sim::WorldConfig world_config(std::uint64_t seed, long blocks) {
  sim::WorldConfig wc;
  wc.seed = seed;
  wc.num_blocks = static_cast<int>(blocks);
  return wc;
}

/// The workload's generator: `generated` generated blocks, or exactly
/// `universe` blocks in total.
sim::BlockGenerator make_generator(const BatchSpec& s, std::uint64_t seed) {
  if (s.generated > 0) return sim::BlockGenerator(world_config(seed, s.generated));
  const sim::BlockGenerator probe(world_config(seed, 0));
  return sim::BlockGenerator(world_config(
      seed, static_cast<long>(s.universe - probe.special_blocks())));
}

/// FNV-1a over a ChangeAggregator's continent and gridcell series (cells
/// in (lat, lon) order), so two aggregations can be compared exactly.
std::uint64_t aggregate_digest(const core::ChangeAggregator& agg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  auto series = [&mix](const core::RegionDaySeries& r) {
    mix(static_cast<std::uint64_t>(r.change_sensitive_blocks));
    for (const auto v : r.down) mix(static_cast<std::uint64_t>(v));
    for (const auto v : r.up) mix(static_cast<std::uint64_t>(v));
  };
  for (const auto& r : agg.by_continent()) series(r);
  std::vector<diurnal::geo::GridCell> cells;
  for (const auto& [cell, r] : agg.by_cell()) cells.push_back(cell);
  std::sort(cells.begin(), cells.end(), [](const auto& a, const auto& b) {
    return a.lat_idx != b.lat_idx ? a.lat_idx < b.lat_idx
                                  : a.lon_idx < b.lon_idx;
  });
  for (const auto& c : cells) {
    mix(static_cast<std::uint64_t>(c.lat_idx));
    mix(static_cast<std::uint64_t>(c.lon_idx));
    series(agg.by_cell().at(c));
  }
  return h;
}

core::ShardConfig shard_config(const BatchSpec& s, unsigned threads) {
  core::ShardConfig sc;
  sc.shard_size = s.shard_size;
  // One resident shard per worker and one thread inside each shard run.
  sc.max_resident = threads;
  return sc;
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

double dir_mb(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Outcome digest of rows [begin, end) of a merged result, with the
/// funnel recomputed over those rows.
std::uint64_t slice_digest(const core::FleetResult& merged, std::size_t begin,
                           std::size_t end) {
  core::FleetResult sub;
  sub.outcomes.assign(merged.outcomes.begin() + static_cast<long>(begin),
                      merged.outcomes.begin() + static_cast<long>(end));
  for (const auto& o : sub.outcomes) sub.funnel.add(o.cls);
  return core::fleet_digest(sub);
}

/// The untimed reference for blocks [begin, end): a StreamingFleet run
/// over that WorldSlice alone.
std::uint64_t reference_digest(const sim::BlockGenerator& gen,
                               const core::FleetConfig& fc, std::size_t begin,
                               std::size_t end) {
  sim::WorldSlice slice;
  slice.materialize(gen, begin, end);
  core::StreamingFleet engine(slice.blocks(), fc);
  return core::fleet_digest(engine.run_to_completion());
}

// ---------------------------------------------------------------------------
// The traced composition.

recon::BlockObservationConfig observation_config(const core::FleetConfig& cfg,
                                                 const core::DatasetSpec& ds) {
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.loss = diurnal::probe::LossModel(cfg.loss);
  oc.window = ds.window();
  oc.prober.kind = ds.survey ? diurnal::probe::ProberKind::kSurvey
                             : diurnal::probe::ProberKind::kTrinocular;
  oc.one_loss_repair = cfg.one_loss_repair;
  oc.additional_observations = cfg.additional_observations;
  oc.faults = &cfg.faults;
  oc.recon = cfg.recon;
  return oc;
}

/// The fleet pipeline's degraded-mode annotation: a change whose
/// evidence window (with a day of slack) overlaps a coverage gap, or any
/// change of a block below the evidence floor, is low-evidence.
void annotate_low_evidence(std::vector<core::DetectedChange>& changes,
                           const recon::ReconStats& rs, double floor) {
  constexpr diurnal::util::SimTime kSlack = diurnal::util::kSecondsPerDay;
  for (auto& c : changes) {
    if (rs.evidence_fraction < floor) {
      c.low_evidence = true;
      continue;
    }
    for (const auto& g : rs.gaps) {
      if (c.start - kSlack < g.end && c.end + kSlack > g.start) {
        c.low_evidence = true;
        break;
      }
    }
  }
}

struct LayerCounts {
  std::size_t observations = 0;
  std::size_t classify_blocks = 0;
  std::size_t detect_blocks = 0;
  std::size_t detect_samples = 0;
  void add(const LayerCounts& o) {
    observations += o.observations;
    classify_blocks += o.classify_blocks;
    detect_blocks += o.detect_blocks;
    detect_samples += o.detect_samples;
  }
};

struct TracedResult {
  core::FleetResult fleet;
  core::ChangeAggregator aggregate;
  LayerCounts counts;
};

/// The sharded drive composed from per-layer calls.  Same topology as
/// run_sharded_fleet with one thread per shard: `workers` threads claim
/// contiguous shards; each materializes its slice, streams every block,
/// classifies and detects in SoA batches of the engine's width,
/// aggregates, and (with a checkpoint dir) records the shard.
/// tracers[w] receives worker w's spans; tracers.back() the main
/// thread's.
TracedResult traced_drive(const sim::BlockGenerator& gen,
                          const core::FleetConfig& fc, std::size_t shard_size,
                          std::size_t workers, const std::string& ckpt_dir,
                          std::vector<Tracer>& tracers) {
  const std::size_t total = gen.total_blocks();
  const std::size_t n_shards = (total + shard_size - 1) / shard_size;
  const auto window = fc.dataset.window();
  const bool split = fc.classify_dataset.has_value();
  const core::DatasetSpec& cds = split ? *fc.classify_dataset : fc.dataset;
  const auto classify_window = cds.window();
  // The split-window workload is the fused (kUnion) shape: the
  // classification window is a prefix of the detection window.
  if (split && (classify_window.start != window.start ||
                classify_window.end > window.end || cds.sites != fc.dataset.sites ||
                !fc.faults.skews.empty())) {
    throw std::logic_error("traced drive supports only a nested classify window");
  }
  const recon::BlockObservationConfig detect_oc =
      observation_config(fc, fc.dataset);
  const double floor = fc.classifier.min_evidence_fraction;
  const std::int64_t sstep = detect_oc.recon.sample_step;
  const std::size_t stride = static_cast<std::size_t>(
      (window.end - window.start + sstep - 1) / sstep);
  constexpr std::size_t kWidth = analysis::BatchAnalyzer::kMaxLanes;

  TracedResult out{{}, core::ChangeAggregator(window.start, window.end), {}};
  out.fleet.outcomes.resize(total);
  out.fleet.degradation.blocks.resize(total);
  std::optional<core::CheckpointManager> ckpt;
  if (!ckpt_dir.empty()) {
    ckpt.emplace(ckpt_dir,
                 core::checkpoint_fingerprint(gen.config(), fc, shard_size),
                 total, shard_size);
  }

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  auto worker = [&](Tracer& tr) {
    sim::WorldSlice slice;
    core::SeriesStore store;
    diurnal::probe::ProbeScratch scratch;
    recon::BlockStream stream;
    recon::DegradedReconStats csr;
    struct Slot {
      std::size_t local = 0;
      std::size_t global = 0;
      recon::DegradedReconStats sr;
    };
    std::array<Slot, kWidth> slots;
    std::size_t n_slots = 0;
    analysis::BlockAnalyzer az;
    analysis::BatchAnalyzer baz;
    core::BatchDetector det(fc.detector, kWidth);
    core::ChangeAggregator local_agg(window.start, window.end);
    LayerCounts cnt;
    auto& outcomes = out.fleet.outcomes;
    auto& degradation = out.fleet.degradation.blocks;

    auto summarize = [&](std::size_t g, const recon::DegradedReconStats& s) {
      degradation[g] = diurnal::fault::summarize_block(
          s.observers, static_cast<int>(s.observers.size()), classify_window,
          s.recon.evidence_fraction, s.recon.max_gap_seconds, floor);
    };
    auto detect_queued = [&](bool only_sensitive) {
      {
        Tracer::Scope span(tr, "analysis.detect");
        for (std::size_t k = 0; k < n_slots; ++k) {
          const Slot& s = slots[k];
          auto& o = outcomes[s.global];
          if (only_sensitive && !o.cls.change_sensitive) continue;
          det.enqueue(store.series(s.local), s.sr.recon.start, s.sr.recon.step,
                      &o.changes);
          ++cnt.detect_blocks;
          cnt.detect_samples += s.sr.recon.len;
        }
        det.flush();
      }
      for (std::size_t k = 0; k < n_slots; ++k) {
        const Slot& s = slots[k];
        auto& o = outcomes[s.global];
        if (only_sensitive && !o.cls.change_sensitive) continue;
        annotate_low_evidence(o.changes, s.sr.recon, floor);
      }
    };
    // Single window: classification and detection both batch over the
    // queued store rows.
    auto flush_same = [&] {
      if (n_slots == 0) return;
      std::array<core::BatchClassifyJob, kWidth> jobs;
      for (std::size_t k = 0; k < n_slots; ++k) {
        const Slot& s = slots[k];
        const auto& rs = s.sr.recon;
        jobs[k] = core::BatchClassifyJob{store.series(s.local), rs.start,
                                         rs.step, rs.responsive,
                                         rs.evidence_fraction,
                                         &outcomes[s.global].cls};
      }
      {
        Tracer::Scope span(tr, "analysis.classify");
        core::classify_blocks_batch(
            std::span<core::BatchClassifyJob>(jobs.data(), n_slots),
            fc.classifier, baz, az);
      }
      cnt.classify_blocks += n_slots;
      for (std::size_t k = 0; k < n_slots; ++k) {
        summarize(slots[k].global, slots[k].sr);
      }
      if (fc.run_detection) detect_queued(true);
      n_slots = 0;
    };
    // Split window: only detection is batched.
    auto flush_detect = [&] {
      if (n_slots == 0) return;
      detect_queued(false);
      n_slots = 0;
    };

    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n_shards) break;
      Tracer::Scope shard_span(tr, "core.shard", static_cast<std::int64_t>(k));
      const std::size_t begin = k * shard_size;
      const std::size_t end = std::min(begin + shard_size, total);
      {
        Tracer::Scope span(tr, "sim.materialize", static_cast<std::int64_t>(k));
        slice.materialize(gen, begin, end);
      }
      store.reset(end - begin, stride, window.start, sstep);
      const auto blocks = slice.blocks();
      for (std::size_t li = 0; li < blocks.size(); ++li) {
        const std::size_t g = begin + li;
        const auto& block = blocks[li];
        auto& o = outcomes[g];
        o.id = block.id;
        if (block.eb_count == 0) continue;  // never responds
        const auto gid = static_cast<std::int64_t>(g);
        if (!split) {
          Slot& s = slots[n_slots];
          s.local = li;
          s.global = g;
          {
            Tracer::Scope span(tr, "recon.stream", gid);
            stream.begin(block, detect_oc, scratch);
            stream.bind_series(store.row(li));
            stream.finalize_stats(s.sr);
          }
          store.set_len(li, s.sr.recon.len);
          cnt.observations += stream.delivered_observations();
          if (++n_slots == kWidth) flush_same();
          continue;
        }
        {
          Tracer::Scope span(tr, "recon.stream", gid);
          stream.begin(block, detect_oc, scratch, classify_window.end);
          stream.bind_series(store.row(li));
          stream.advance_to(classify_window.end);
          stream.finalize_classify_stats(csr);
        }
        {
          Tracer::Scope span(tr, "analysis.classify", gid);
          o.cls = core::classify_block(stream.classify_series(),
                                       csr.recon.start, csr.recon.step,
                                       csr.recon.responsive,
                                       csr.recon.evidence_fraction,
                                       fc.classifier, az);
        }
        ++cnt.classify_blocks;
        summarize(g, csr);
        if (o.cls.change_sensitive && fc.run_detection) {
          Slot& s = slots[n_slots];
          s.local = li;
          s.global = g;
          {
            Tracer::Scope span(tr, "recon.stream", gid);
            stream.finalize_stats(s.sr);
          }
          store.set_len(li, s.sr.recon.len);
          if (++n_slots == kWidth) flush_detect();
        }
        cnt.observations += stream.delivered_observations();
      }
      if (split) {
        flush_detect();
      } else {
        flush_same();
      }

      core::ChangeAggregator shard_agg(window.start, window.end);
      core::ChangeAggregator& agg = ckpt ? shard_agg : local_agg;
      {
        Tracer::Scope span(tr, "core.aggregate", static_cast<std::int64_t>(k));
        for (std::size_t li = 0; li < blocks.size(); ++li) {
          const auto& o = outcomes[begin + li];
          if (!o.cls.change_sensitive) continue;
          agg.add_block(blocks[li].cell(),
                        diurnal::geo::countries()[blocks[li].country].continent,
                        o.changes);
        }
      }
      if (ckpt) {
        {
          Tracer::Scope span(tr, "core.ckpt_write", static_cast<std::int64_t>(k));
          ckpt->record_shard(k, begin, end, out.fleet, shard_agg, false);
        }
        Tracer::Scope span(tr, "core.aggregate", static_cast<std::int64_t>(k));
        local_agg.merge_from(shard_agg);
      }
      store = core::SeriesStore{};
      slice.release();
    }
    const std::lock_guard<std::mutex> lock(mu);
    Tracer::Scope span(tr, "core.aggregate");
    out.aggregate.merge_from(local_agg);
    out.counts.add(cnt);
  };

  if (workers <= 1) {
    worker(tracers[0]);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(worker, std::ref(tracers[w]));
    }
    for (auto& t : pool) t.join();
  }
  if (ckpt) {
    Tracer::Scope span(tracers.back(), "core.ckpt_write");
    ckpt->flush_manifest();
  }
  for (const auto& o : out.fleet.outcomes) out.fleet.funnel.add(o.cls);
  out.fleet.degradation.finalize();
  return out;
}

struct ResumeResult {
  std::uint64_t digest = 0;
  std::uint64_t aggregate = 0;
  std::size_t recomputed = 0;
};

/// Resume composed from CheckpointManager's manifest and shard loads:
/// every shard must come back from its file (none recomputed).
ResumeResult traced_resume(const sim::BlockGenerator& gen,
                           const core::FleetConfig& fc, std::size_t shard_size,
                           const std::string& dir, Tracer& tr) {
  const std::size_t total = gen.total_blocks();
  const std::size_t n_shards = (total + shard_size - 1) / shard_size;
  const auto window = fc.dataset.window();
  core::CheckpointManager mgr(
      dir, core::checkpoint_fingerprint(gen.config(), fc, shard_size), total,
      shard_size);
  core::FleetResult fleet;
  fleet.outcomes.resize(total);
  core::ChangeAggregator agg(window.start, window.end);
  std::vector<char> done(n_shards, 0);
  std::vector<std::size_t> listed;
  {
    Tracer::Scope span(tr, "core.ckpt_load");
    listed = mgr.load_manifest();
  }
  for (const std::size_t k : listed) {
    if (k >= n_shards) continue;
    Tracer::Scope span(tr, "core.ckpt_load", static_cast<std::int64_t>(k));
    core::ShardCheckpoint sc;
    try {
      sc = mgr.load_shard(k);
    } catch (const diurnal::util::StateError&) {
      continue;  // unreadable: the shard would be recomputed
    }
    for (std::size_t i = 0; i < sc.outcomes.size(); ++i) {
      fleet.outcomes[sc.begin + i] = std::move(sc.outcomes[i]);
    }
    agg.merge_from(sc.aggregate);
    done[k] = 1;
  }
  for (const auto& o : fleet.outcomes) fleet.funnel.add(o.cls);
  ResumeResult r;
  r.digest = core::fleet_digest(fleet);
  r.aggregate = aggregate_digest(agg);
  r.recomputed = static_cast<std::size_t>(std::count(done.begin(), done.end(), 0));
  return r;
}

struct Untraced {
  std::uint64_t digest = 0;
  std::uint64_t aggregate = 0;
  double wall_s = 0.0;
  double peak_mb = 0.0;
  core::ShardStats stats;
  std::int64_t degraded_blocks = 0;
  core::FleetResult fleet;
};

Untraced untraced_drive(const sim::BlockGenerator& gen,
                        const core::FleetConfig& fc, core::ShardConfig sc) {
  Untraced u;
  // Return the heap the previous phase freed to the OS first, so the
  // peak measures this drive's live set, not earlier leftovers.
  malloc_trim(0);
  diurnal::util::reset_peak_rss();
  const auto t0 = Clock::now();
  core::ShardedFleetResult r = core::run_sharded_fleet(gen, fc, sc);
  u.wall_s = seconds_between(t0, Clock::now());
  u.peak_mb = peak_rss_mb();
  u.digest = core::fleet_digest(r.fleet);
  u.aggregate = aggregate_digest(r.aggregate);
  u.stats = r.stats;
  u.degraded_blocks = r.fleet.degradation.degraded_blocks;
  u.fleet = std::move(r.fleet);
  return u;
}

}  // namespace

Report run_batch(const Options& opt) {
  Report rep;
  const BatchSpec spec = spec_for(opt);
  const unsigned threads = batch_threads();
  const std::string run_dir = opt.work_dir + "/" + opt.workload + "-" +
                              std::to_string(opt.seed) + "-" +
                              std::to_string(::getpid());
  const std::string ckpt_dir = spec.checkpoint ? run_dir + "/ckpt" : "";

  // Set-up: the generator, the fleet configuration and the checkpoint
  // directory.  It takes microseconds, so one burst of repetitions would
  // sample the host's speed at a single instant; a burst runs before the
  // first drive and after every drive, and setup_s is the median of all.
  std::vector<double> setup;
  std::optional<sim::BlockGenerator> gen;
  std::optional<core::FleetConfig> fc;
  auto set_up = [&] {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto t0 = Clock::now();
      gen.emplace(make_generator(spec, opt.seed));
      fc.emplace(fleet_config(spec, static_cast<int>(threads)));
      if (spec.checkpoint) reset_dir(ckpt_dir);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
  };
  set_up();
  // Untimed warm-up over a 64-block shard per worker of the same seed,
  // so the timed drives start with threads, allocator arenas and static
  // tables warm.
  {
    const sim::BlockGenerator warm(world_config(opt.seed, 64L * threads));
    core::ShardConfig wsc;
    wsc.shard_size = 64;
    wsc.max_resident = threads;
    core::run_sharded_fleet(warm, *fc, wsc);
  }
  core::ShardConfig sc = shard_config(spec, threads);
  sc.checkpoint_dir = ckpt_dir;
  const std::size_t total = gen->total_blocks();
  const std::size_t n_shards = (total + spec.shard_size - 1) / spec.shard_size;

  std::vector<double> rate, peak, resume, traced_wall, untraced_wall;
  std::vector<std::map<std::string, double>> layers;
  std::optional<Untraced> first;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  std::vector<Tracer> last_tracers;
  const std::size_t workers = std::min<std::size_t>(threads, n_shards);
  do {
    if (spec.checkpoint) reset_dir(ckpt_dir);
    Untraced u = untraced_drive(*gen, *fc, sc);
    rate.push_back(static_cast<double>(total) / u.wall_s);
    std::fprintf(stderr, "perfbench: drive %zu: %.3f s, %.1f blocks/s, peak %.1f MB\n",
                 rate.size(), u.wall_s, rate.back(), u.peak_mb);
    peak.push_back(u.peak_mb);
    untraced_wall.push_back(u.wall_s);
    if (!first) {
      first.emplace(std::move(u));
    } else {
      rep.check(u.digest == first->digest && u.aggregate == first->aggregate,
                "repeated drive reproduces the first drive's digest");
    }
    if (spec.checkpoint && !opt.trace) {
      // Resume of the finished run: every shard must load, none recompute.
      core::ShardConfig rc = sc;
      rc.resume = true;
      const auto t0 = Clock::now();
      const core::ShardedFleetResult r = core::run_sharded_fleet(*gen, *fc, rc);
      resume.push_back(seconds_between(t0, Clock::now()));
      rep.check(core::fleet_digest(r.fleet) == first->digest &&
                    r.stats.completed_shards == 0,
                "resume returns the first run's digest with no recomputed shard");
    }
    if (opt.trace) {
      const std::string tdir = spec.checkpoint ? run_dir + "/traced-ckpt" : "";
      if (!tdir.empty()) reset_dir(tdir);
      const auto origin = Clock::now();
      std::vector<Tracer> tracers;
      for (std::size_t w = 0; w <= workers; ++w) tracers.emplace_back(true, origin);
      const auto t0 = Clock::now();
      TracedResult t = traced_drive(*gen, *fc, spec.shard_size, workers, tdir, tracers);
      traced_wall.push_back(seconds_between(t0, Clock::now()));
      rep.check(core::fleet_digest(t.fleet) == first->digest &&
                    aggregate_digest(t.aggregate) == first->aggregate &&
                    t.fleet.degradation.degraded_blocks == first->degraded_blocks,
                "traced composition hashes to the untraced digest");
      std::map<std::string, double> m;
      auto sum = [&tracers](const char* name) {
        double s = 0.0;
        for (const auto& tr : tracers) s += tr.total_s(name);
        return s;
      };
      m["sim.materialize_s"] = sum("sim.materialize");
      m["recon.stream_s"] = sum("recon.stream");
      m["recon.observations"] = static_cast<double>(t.counts.observations);
      m["recon.obs_per_s"] =
          static_cast<double>(t.counts.observations) / m["recon.stream_s"];
      m["fault.degraded_blocks"] =
          static_cast<double>(t.fleet.degradation.degraded_blocks);
      m["analysis.classify_s"] = sum("analysis.classify");
      m["analysis.classify_blocks"] = static_cast<double>(t.counts.classify_blocks);
      m["analysis.detect_s"] = sum("analysis.detect");
      m["analysis.detect_blocks"] = static_cast<double>(t.counts.detect_blocks);
      m["analysis.detect_samples"] = static_cast<double>(t.counts.detect_samples);
      m["core.aggregate_s"] = sum("core.aggregate");
      m["core.shards"] = static_cast<double>(first->stats.shards);
      m["core.workers"] = static_cast<double>(first->stats.workers);
      m["core.peak_resident_mb"] =
          static_cast<double>(first->stats.peak_resident_bytes) / (1024.0 * 1024.0);
      if (spec.checkpoint) {
        m["core.ckpt_write_s"] = sum("core.ckpt_write");
        m["core.ckpt_mb"] = dir_mb(tdir);
        const ResumeResult rr = traced_resume(*gen, *fc, spec.shard_size, tdir,
                                              tracers.back());
        m["core.ckpt_load_s"] = tracers.back().total_s("core.ckpt_load");
        m["core.recomputed_shards"] = static_cast<double>(rr.recomputed);
        rep.check(rr.digest == first->digest && rr.aggregate == first->aggregate &&
                      rr.recomputed == 0,
                  "traced resume loads every shard and returns the digest");
      }
      layers.push_back(std::move(m));
      last_tracers = std::move(tracers);
    }
    set_up();
  } while (Clock::now() < deadline);

  // Untimed reference: a seed-chosen shard re-run on its own must match
  // the merged rows.
  const std::size_t k = static_cast<std::size_t>(opt.seed * 2654435761ULL) % n_shards;
  const std::size_t ref_begin = k * spec.shard_size;
  const std::size_t ref_end = std::min(ref_begin + spec.shard_size, total);
  std::uint64_t reference = reference_digest(*gen, *fc, ref_begin, ref_end);
  if (opt.corrupt_reference) reference ^= 1;
  rep.check(reference == slice_digest(first->fleet, ref_begin, ref_end),
            "sampled shard re-run through StreamingFleet matches the merged rows");

  rep.note("blocks", static_cast<double>(total), "count");
  rep.note("shards", static_cast<double>(first->stats.shards), "count");
  rep.note("workers", static_cast<double>(first->stats.workers), "count");
  rep.note("intra_threads", static_cast<double>(first->stats.intra_threads), "count");
  rep.note("drives", static_cast<double>(rate.size()), "count");
  rep.note("degraded_blocks", static_cast<double>(first->degraded_blocks), "count");
  std::printf("{\"digest\": \"%s\"}\n", core::digest_hex(first->digest).c_str());

  if (!opt.trace) {
    rep.add("setup_s", median(setup), "s");
    rep.add("blocks_per_s", median(rate), "blocks/s");
    rep.add("peak_rss_mb", median(peak), "MB");
    if (spec.checkpoint) rep.note("resume_s", median(resume), "s");
  } else {
    std::map<std::string, double> med;
    for (const auto& [name, v] : layers.front()) {
      std::vector<double> vals;
      for (const auto& m : layers) vals.push_back(m.at(name));
      med[name] = median(vals);
    }
    med["trace.overhead_share"] = median(traced_wall) / median(untraced_wall) - 1.0;
    add_layer_metrics(rep, med);
    std::vector<const Tracer*> ptrs;
    for (const auto& t : last_tracers) ptrs.push_back(&t);
    write_spans(opt.work_dir + "/spans-" + opt.workload + "-" +
                    std::to_string(opt.seed) + ".tsv",
                ptrs);
  }
  fs::remove_all(run_dir);
  return rep;
}

}  // namespace perfbench
