// BENCH stream: the incremental drive of the streaming fleet engine.
//
// Feeds the reference fleet world one epoch (default 1 day) at a time
// through StreamingFleet::advance_to and measures (a) ingest throughput
// (post-fault observations per second of advance time), (b) per-epoch
// latency — first epoch separately, since it pays the per-block setup,
// and the steady-state distribution over the remaining epochs — and
// (c) finalize cost.  The run ends with the equivalence gate: the
// incrementally-driven result must hash to the same fleet digest as the
// batch run_fleet pass, or the bench exits nonzero.
//
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED,
// DIURNAL_BENCH_EPOCH_SECONDS (default 86400, at least 1), and
// DIURNAL_BENCH_JSON
// (output path, default BENCH_stream.json).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "sim/world.h"
#include "util/date.h"

using namespace diurnal;

namespace {

double quantile_ms(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)] * 1e3;
}

}  // namespace

int main() {
  bench::header("BENCH stream",
                "incremental (round-by-round) fleet drive vs batch",
                "streaming engine; see EXPERIMENTS.md 'bench_stream'");
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));

  const std::int64_t epoch_seconds = bench::env_int(
      "DIURNAL_BENCH_EPOCH_SECONDS", static_cast<int>(util::kSecondsPerDay), 1);

  // Batch reference: one run_fleet pass, the digest the stream must hit.
  auto t0 = bench::Clock::now();
  const auto batch = core::run_fleet(world, fc);
  const double batch_secs = bench::seconds_since(t0);
  const std::uint64_t batch_digest = core::fleet_digest(batch);

  // Incremental drive: one advance per epoch, then finalize.
  core::StreamingFleet fleet(world, fc);
  std::vector<double> epoch_secs_each;
  std::size_t observations = 0;
  std::size_t provisional_alarms = 0;
  const auto stream_t0 = bench::Clock::now();
  for (util::SimTime t = fleet.window_start() + epoch_seconds;;
       t += epoch_seconds) {
    const auto bounded = std::min(t, fleet.window_end());
    const auto et0 = bench::Clock::now();
    const auto report = fleet.advance_to(bounded);
    epoch_secs_each.push_back(bench::seconds_since(et0));
    observations += report.observations;
    provisional_alarms += report.provisional.size();
    if (bounded == fleet.window_end()) break;
  }
  const double ingest_secs = bench::seconds_since(stream_t0);
  t0 = bench::Clock::now();
  const auto streamed = fleet.finalize();
  const double finalize_secs = bench::seconds_since(t0);
  const std::uint64_t stream_digest = core::fleet_digest(streamed);

  const std::size_t epochs = epoch_secs_each.size();
  const double first_epoch = epoch_secs_each.empty() ? 0.0 : epoch_secs_each[0];
  std::vector<double> steady(epoch_secs_each.begin() +
                                 (epoch_secs_each.size() > 1 ? 1 : 0),
                             epoch_secs_each.end());
  const double obs_per_sec =
      ingest_secs > 0 ? static_cast<double>(observations) / ingest_secs : 0.0;

  std::printf("batch:  %7.2fs  (digest %s)\n", batch_secs,
              core::digest_hex(batch_digest).c_str());
  std::printf(
      "stream: %7.2fs ingest + %.2fs finalize over %zu epochs of %llds\n",
      ingest_secs, finalize_secs, epochs,
      static_cast<long long>(epoch_seconds));
  std::printf("  ingest   %10.0f obs/sec  (%.2fM observations)\n", obs_per_sec,
              static_cast<double>(observations) * 1e-6);
  std::printf(
      "  epoch    first %.1fms | steady p50 %.1fms p90 %.1fms max %.1fms\n",
      first_epoch * 1e3, quantile_ms(steady, 0.5), quantile_ms(steady, 0.9),
      quantile_ms(steady, 1.0));
  std::printf("  alarms   %zu provisional\n", provisional_alarms);
  const bool equivalent = stream_digest == batch_digest;
  std::printf("digest batch %s | stream %s -> %s\n",
              core::digest_hex(batch_digest).c_str(),
              core::digest_hex(stream_digest).c_str(),
              equivalent ? "HOLDS (batch == streaming)" : "VIOLATED");
  bench::print_funnel("funnel", streamed.funnel);

  bench::JsonObject j;
  j.add("bench", "stream")
      .add("dataset", fc.dataset.abbr)
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("threads", fc.threads)
      .add("epoch_seconds", epoch_seconds)
      .add("epochs", static_cast<std::int64_t>(epochs))
      .add("observations", static_cast<std::int64_t>(observations))
      .add("ingest_seconds", ingest_secs)
      .add("obs_per_sec", obs_per_sec)
      .add("epoch_first_ms", first_epoch * 1e3)
      .add("epoch_steady_p50_ms", quantile_ms(steady, 0.5))
      .add("epoch_steady_p90_ms", quantile_ms(steady, 0.9))
      .add("epoch_steady_max_ms", quantile_ms(steady, 1.0))
      .add("finalize_seconds", finalize_secs)
      .add("batch_seconds", batch_secs)
      .add("stream_total_seconds", ingest_secs + finalize_secs)
      .add("provisional_alarms", static_cast<std::int64_t>(provisional_alarms))
      .add("equivalent", equivalent)
      .add("fleet_digest", core::digest_hex(stream_digest));
  bench::write_bench_json("BENCH_stream.json", j);
  return equivalent ? 0 : 1;
}
