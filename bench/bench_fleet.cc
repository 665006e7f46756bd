// BENCH fleet: end-to-end throughput of the probe -> repair -> merge ->
// reconstruct -> classify -> detect pipeline over a whole world.
//
// This is the perf-trajectory anchor: the engine's batch drive
// (core::run_fleet) runs at threads=1 and threads=hardware, and the two
// must produce bit-identical results (the determinism gate).  Where
// the time goes inside the drive is perfbench's traced per-layer split
// (recon.stream_s, analysis.classify_s, analysis.detect_s).
//
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED, and
// DIURNAL_BENCH_JSON (output path, default BENCH_fleet.json).
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "sim/world.h"

using namespace diurnal;

int main() {
  bench::header("BENCH fleet",
                "end-to-end fleet throughput (probe sim -> detect)",
                "perf trajectory anchor; see EXPERIMENTS.md 'bench_fleet'");
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");

  // threads=1 vs threads=hardware: the digests must agree
  // (work-stealing must not change results).
  fc.threads = 1;
  auto t0 = bench::Clock::now();
  const auto fleet_1t = core::run_fleet(world, fc);
  const double secs_1t = bench::seconds_since(t0);

  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  fc.threads = static_cast<int>(hw);
  t0 = bench::Clock::now();
  const auto fleet_mt = core::run_fleet(world, fc);
  const double secs_mt = bench::seconds_since(t0);

  const std::uint64_t digest_1t = core::fleet_digest(fleet_1t);
  const std::uint64_t digest_mt = core::fleet_digest(fleet_mt);
  const double n_blocks = static_cast<double>(world.blocks().size());

  std::printf("fleet threads=1:  %7.2fs  (%.1f blocks/sec)\n", secs_1t,
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

  bench::JsonObject j;
  j.add("bench", "fleet")
      .add("dataset", fc.dataset.abbr)
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("fleet_seconds_1t", secs_1t)
      .add("blocks_per_sec_1t", n_blocks / secs_1t)
      .add("fleet_threads_mt", static_cast<std::int64_t>(hw))
      .add("hardware_concurrency", static_cast<std::int64_t>(physical))
      .add("fleet_seconds_mt", secs_mt)
      .add("blocks_per_sec_mt", n_blocks / secs_mt)
      .add("deterministic", digest_1t == digest_mt)
      .add("fleet_digest", core::digest_hex(digest_1t));
  bench::write_bench_json("BENCH_fleet.json", j);
  return digest_1t == digest_mt ? 0 : 1;
}
