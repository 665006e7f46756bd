// BENCH fleet: end-to-end throughput of the probe -> repair -> merge ->
// reconstruct -> classify -> detect pipeline over a whole world.
//
// This is the perf-trajectory anchor: every PR that touches the hot
// path reruns it and appends/compares BENCH_fleet.json (blocks/sec,
// probes/sec, per-stage breakdown).  The per-stage pass runs single
// threaded so stage shares are comparable across machines; the fleet
// pass runs both threads=1 and threads=hardware and cross-checks that
// the two produce bit-identical results (the determinism gate).
//
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED, and
// DIURNAL_BENCH_JSON (output path, default BENCH_fleet.json).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/datasets.h"
#include "core/pipeline.h"
#include "probe/prober.h"
#include "recon/block_recon.h"
#include "recon/repair.h"
#include "sim/world.h"

using namespace diurnal;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct StageSeconds {
  double probe = 0, repair = 0, merge = 0, reconstruct = 0, classify = 0,
         detect = 0;
  double total() const {
    return probe + repair + merge + reconstruct + classify + detect;
  }
};

}  // namespace

int main() {
  bench::header("BENCH fleet",
                "end-to-end fleet throughput (probe sim -> detect)",
                "perf trajectory anchor; see EXPERIMENTS.md 'bench_fleet'");
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");

  // ------------------------------------------------------------------
  // Single-thread per-stage pass (the probe-simulation throughput gate).
  // ------------------------------------------------------------------
  recon::BlockObservationConfig oc;
  oc.observers = fc.dataset.observers();
  oc.loss = probe::LossModel(fc.loss);
  oc.window = fc.dataset.window();
  oc.recon = fc.recon;

  // The stage pass repeats DIURNAL_BENCH_REPS times (default 3) and
  // keeps the fastest pass: the pipeline is deterministic, so the reps
  // differ only by machine noise (cold caches, frequency scaling,
  // neighbors), and min-of-N is the stable estimator for comparing runs
  // across PRs.
  const int reps = std::max(1, bench::env_int("DIURNAL_BENCH_REPS", 3));
  StageSeconds stage;
  std::int64_t probes = 0;
  std::int64_t responsive_blocks = 0;
  std::int64_t detected_blocks = 0;
  double stage_total = 0;
  probe::ProbeScratch scratch;
  std::vector<probe::ObservationVec> streams;
  // The engine's analysis at width 1: one-job classification batches,
  // then a one-lane detector.
  analysis::BatchAnalyzer baz;
  core::BatchDetector detector(fc.detector, 1);
  std::vector<core::DetectedChange> changes;

  for (int rep = 0; rep < reps; ++rep) {
    StageSeconds cur;
    probes = 0;
    responsive_blocks = 0;
    detected_blocks = 0;
    const auto stage_t0 = Clock::now();
    for (const auto& block : world.blocks()) {
      if (block.eb_count == 0) continue;
      ++responsive_blocks;

      auto t = Clock::now();
      streams.resize(oc.observers.size());
      for (std::size_t i = 0; i < oc.observers.size(); ++i) {
        probe::probe_block_into(block, oc.observers[i], oc.loss, oc.window,
                                oc.prober, scratch, streams[i]);
        probes += static_cast<std::int64_t>(streams[i].size());
      }
      cur.probe += seconds_since(t);

      t = Clock::now();
      for (auto& s : streams) recon::one_loss_repair(s);
      cur.repair += seconds_since(t);

      t = Clock::now();
      probe::merge_observations_into(streams, scratch.merged);
      cur.merge += seconds_since(t);

      t = Clock::now();
      const auto recon_res = recon::reconstruct(scratch.merged, block.eb_count,
                                                oc.window, oc.recon);
      cur.reconstruct += seconds_since(t);

      const auto& counts = recon_res.counts;
      t = Clock::now();
      core::BlockClassification cls;
      core::BatchClassifyJob job{counts.span(), counts.start(), counts.step(),
                                 recon_res.responsive,
                                 recon_res.evidence_fraction, &cls};
      core::classify_blocks_batch(std::span(&job, 1), fc.classifier, baz);
      cur.classify += seconds_since(t);

      if (cls.change_sensitive) {
        t = Clock::now();
        detector.enqueue(counts.span(), counts.start(), counts.step(),
                         &changes);
        cur.detect += seconds_since(t);
        detected_blocks += changes.empty() ? 0 : 1;
      }
    }
    const double cur_total = seconds_since(stage_t0);
    if (rep == 0 || cur.total() < stage.total()) {
      stage = cur;
      stage_total = cur_total;
    }
  }
  const double probes_per_sec = static_cast<double>(probes) / stage.probe;

  std::printf("stage pass (1 thread, best of %d): %.2fs over %lld probed blocks\n",
              reps, stage_total, static_cast<long long>(responsive_blocks));
  std::printf("  probe sim   %8.3fs  (%.3fM probes, %.2fM probes/sec)\n",
              stage.probe, static_cast<double>(probes) * 1e-6,
              probes_per_sec * 1e-6);
  std::printf("  repair      %8.3fs\n", stage.repair);
  std::printf("  merge       %8.3fs\n", stage.merge);
  std::printf("  reconstruct %8.3fs\n", stage.reconstruct);
  std::printf("  classify    %8.3fs\n", stage.classify);
  std::printf("  detect      %8.3fs  (%lld blocks with changes)\n",
              stage.detect, static_cast<long long>(detected_blocks));

  // ------------------------------------------------------------------
  // End-to-end fleet pass: threads=1 vs threads=hardware, digests must
  // agree (work-stealing must not change results).
  // ------------------------------------------------------------------
  fc.threads = 1;
  auto t0 = Clock::now();
  const auto fleet_1t = core::run_fleet(world, fc);
  const double secs_1t = seconds_since(t0);

  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  fc.threads = static_cast<int>(hw);
  t0 = Clock::now();
  const auto fleet_mt = core::run_fleet(world, fc);
  const double secs_mt = seconds_since(t0);

  const std::uint64_t digest_1t = bench::fleet_digest(fleet_1t);
  const std::uint64_t digest_mt = bench::fleet_digest(fleet_mt);
  const double n_blocks = static_cast<double>(world.blocks().size());

  std::printf("\nfleet threads=1:  %7.2fs  (%.1f blocks/sec)\n", secs_1t,
              n_blocks / secs_1t);
  std::printf("fleet threads=%-2u: %7.2fs  (%.1f blocks/sec)\n", hw, secs_mt,
              n_blocks / secs_mt);
  std::printf("digest 1t %016llx | %ut %016llx -> %s\n",
              static_cast<unsigned long long>(digest_1t), hw,
              static_cast<unsigned long long>(digest_mt),
              digest_1t == digest_mt ? "HOLDS (deterministic)" : "VIOLATED");
  // The MT pass should beat the ST pass on any real multi-core machine.
  // When it does not, say why instead of letting BENCH_fleet.json record
  // a silent anomaly: with one physical core the fleet still forces two
  // worker threads (the determinism gate needs an MT schedule), so the
  // "parallel" pass is pure oversubscription and is expected to lose.
  const unsigned physical = std::thread::hardware_concurrency();
  if (secs_mt > secs_1t) {
    if (physical < 2) {
      std::printf("note: threads=%u slower than threads=1 -- expected: "
                  "hardware_concurrency=%u, the MT pass oversubscribes a "
                  "single core and only gates determinism\n",
                  hw, physical);
    } else {
      std::printf("WARNING: threads=%u slower than threads=1 on a %u-way "
                  "machine -- parallel scaling regressed\n",
                  hw, physical);
    }
  }
  bench::print_funnel("funnel", fleet_1t.funnel);

  bench::JsonObject stages;
  stages.add("probe_sim", stage.probe)
      .add("repair", stage.repair)
      .add("merge", stage.merge)
      .add("reconstruct", stage.reconstruct)
      .add("classify", stage.classify)
      .add("detect", stage.detect);

  bench::JsonObject j;
  j.add("bench", "fleet")
      .add("dataset", fc.dataset.abbr)
      .add("stage_reps", static_cast<std::int64_t>(reps))
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("probed_blocks", responsive_blocks)
      .add("probes", probes)
      .add("probes_per_sec", probes_per_sec)
      .add("stage_seconds", stage.total())
      .add_object("stages", stages)
      .add("fleet_seconds_1t", secs_1t)
      .add("blocks_per_sec_1t", n_blocks / secs_1t)
      .add("fleet_threads_mt", static_cast<std::int64_t>(hw))
      .add("hardware_concurrency", static_cast<std::int64_t>(physical))
      .add("fleet_seconds_mt", secs_mt)
      .add("blocks_per_sec_mt", n_blocks / secs_mt)
      .add("deterministic", digest_1t == digest_mt)
      .add("fleet_digest", bench::digest_hex(digest_1t));
  bench::write_bench_json("BENCH_fleet.json", j);
  return digest_1t == digest_mt ? 0 : 1;
}
