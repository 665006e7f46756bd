// BENCH serve: the concurrent query plane over the streaming engine.
//
// Runs core::SnapshotServer on the reference fleet world: one writer
// thread advances epochs (publishing an immutable snapshot per epoch,
// engine image included) while N reader threads hammer the query API —
// per-block status, trend tails, alarms, gridcell rollups, scorecard —
// each query timed individually.  Reports query latency p50/p90/p99
// while the writer is advancing, ingest/backpressure counters, and ends
// with the equivalence gate: drain() must hash to the same fleet digest
// as the batch run_fleet pass, or the bench exits nonzero.
//
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED,
// DIURNAL_BENCH_EPOCH_SECONDS (default 86400, at least 1),
// DIURNAL_BENCH_READERS (default 4, 0 to 64: each reader is a thread),
// DIURNAL_BENCH_SERVE_P99_BUDGET_US (default 250000), and
// DIURNAL_BENCH_JSON (output path, default BENCH_serve.json).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/snapshot_server.h"
#include "core/worker_pool.h"
#include "query_readers.h"
#include "sim/world.h"
#include "util/date.h"

using namespace diurnal;

int main() {
  bench::header("BENCH serve",
                "concurrent query plane: readers vs the epoch writer",
                "core::SnapshotServer; see EXPERIMENTS.md 'bench_serve'");
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));

  const std::int64_t epoch_seconds = bench::env_int(
      "DIURNAL_BENCH_EPOCH_SECONDS", static_cast<int>(util::kSecondsPerDay), 1);
  const int n_readers =
      bench::env_int("DIURNAL_BENCH_READERS", 4, 0, core::kMaxThreads);
  const double p99_budget_us = static_cast<double>(
      bench::env_int("DIURNAL_BENCH_SERVE_P99_BUDGET_US", 250000));

  // Batch reference: the digest the drained serve run must hit.
  const auto batch = core::run_fleet(world, fc);
  const std::uint64_t batch_digest = core::fleet_digest(batch);

  core::ServeConfig sc;
  sc.epoch_duration = epoch_seconds;
  core::SnapshotServer server(world, fc, sc);

  tools::QueryReaders readers(server, world.blocks(), n_readers);

  const auto t0 = bench::Clock::now();
  server.start();
  server.feed_all();
  const auto streamed = server.drain();
  const double serve_secs = bench::seconds_since(t0);
  const std::vector<double> all = readers.stop();

  const std::uint64_t serve_digest = core::fleet_digest(streamed);
  const core::ServeStats stats = server.stats();
  const auto final_snap = server.snapshot();

  const double p50 = tools::quantile_us(all, 0.5);
  const double p90 = tools::quantile_us(all, 0.9);
  const double p99 = tools::quantile_us(all, 0.99);
  const double pmax = all.empty() ? 0.0 : all.back();

  std::printf("serve:  %7.2fs | %llu epochs, %llu observations\n", serve_secs,
              static_cast<unsigned long long>(stats.epochs_published),
              static_cast<unsigned long long>(stats.observations));
  std::printf(
      "  feed     %llu accepted, %llu backpressure waits, peak depth %zu/%zu\n",
      static_cast<unsigned long long>(stats.feed_accepted),
      static_cast<unsigned long long>(stats.feed_waits), stats.feed_peak_depth,
      stats.feed_capacity);
  std::printf("  snapshot %.2f MB (rows + trends + alarms + image)\n",
              static_cast<double>(stats.snapshot_bytes) * 1e-6);
  std::printf(
      "  queries  %zu from %d readers | p50 %.1fus p90 %.1fus p99 %.1fus "
      "max %.1fus (budget %.0fus)\n",
      all.size(), n_readers, p50, p90, p99, pmax, p99_budget_us);
  const bool equivalent = serve_digest == batch_digest;
  std::printf("digest batch %s | serve %s -> %s\n",
              core::digest_hex(batch_digest).c_str(),
              core::digest_hex(serve_digest).c_str(),
              equivalent ? "HOLDS (batch == drained serve)" : "VIOLATED");
  bench::print_funnel("funnel", streamed.funnel);

  bench::JsonObject j;
  j.add("bench", "serve")
      .add("dataset", fc.dataset.abbr)
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("threads", fc.threads)
      .add("readers", n_readers)
      .add("epoch_seconds", epoch_seconds)
      .add("epochs", static_cast<std::int64_t>(stats.epochs_published))
      .add("observations", static_cast<std::int64_t>(stats.observations))
      .add("serve_seconds", serve_secs)
      .add("queries", static_cast<std::int64_t>(all.size()))
      .add("query_p50_us", p50)
      .add("query_p90_us", p90)
      .add("query_p99_us", p99)
      .add("query_max_us", pmax)
      .add("p99_budget_us", p99_budget_us)
      .add("within_budget", p99 <= p99_budget_us)
      .add("feed_waits", static_cast<std::int64_t>(stats.feed_waits))
      .add("feed_peak_depth", static_cast<std::int64_t>(stats.feed_peak_depth))
      .add("snapshot_bytes", static_cast<std::int64_t>(stats.snapshot_bytes))
      .add("final_snapshot",
           final_snap != nullptr && final_snap->final_epoch())
      .add("equivalent", equivalent)
      .add("fleet_digest", core::digest_hex(serve_digest));
  bench::write_bench_json("BENCH_serve.json", j);
  return equivalent ? 0 : 1;
}
