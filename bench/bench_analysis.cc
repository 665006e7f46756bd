// BENCH analysis: per-stage throughput of the span-kernel analysis
// layer (FFT diurnality, STL decomposition, CUSUM) over real fleet
// series — scalar AND batched (SoA) paths — plus heap allocations per
// block of the warm scalar (BlockAnalyzer) and batched chains.  Both
// must run with ZERO steady-state allocations per block, and the
// batched results must be bit-identical to the scalar kernels (the
// bench exits nonzero otherwise); the fleet digest is
// recorded so CI can cross-check that the measured build still
// produces the golden result.
//
// The JSON records compiler/flags provenance, the detected and active
// SIMD ISA, and per-level dispatch counts from the timed batched
// stages, so a CI machine that silently fell back to the baseline
// clone is visible in the metrics (and fails the speedup gate loudly).
//
// Flags: --batch-width N (1..16, default 16) sets the SoA lane count;
// --scalar runs the scalar chain only (the frontier baseline).
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED,
// DIURNAL_BENCH_REPS, and DIURNAL_BENCH_JSON (default
// BENCH_analysis.json).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "analysis/batch.h"
#include "analysis/block_analyzer.h"
#include "analysis/simd.h"
#include "analysis/stl.h"
#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "flags.h"
#include "sim/world.h"

using namespace diurnal;

namespace {

// Sink so the timed kernel calls cannot be dead-code-eliminated.
volatile double g_sink = 0.0;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool spans_bits_equal(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t batch_width = analysis::kMaxBatchLanes;
  bool scalar_only = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--scalar") {
      scalar_only = true;
    } else if (arg == "--batch-width" && a + 1 < argc) {
      batch_width =
          tools::flag_uint(arg, argv[++a], 1, analysis::kMaxBatchLanes);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scalar] [--batch-width N]  (N in 1..%zu)\n",
                   argv[0], analysis::kMaxBatchLanes);
      return 2;
    }
  }
  // Read before the fleet pass, so a bad value costs nothing.
  const int reps = bench::env_int("DIURNAL_BENCH_REPS", 3, 1);

  bench::header("BENCH analysis",
                "span-kernel stage throughput + allocations/block",
                "scalar vs batched SoA chain; see DESIGN.md §7 and §9");
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);

  namespace simd = analysis::simd;
  std::printf("simd: detected %s, active %s, batch width %zu%s\n",
              simd::level_name(simd::detected_level()),
              simd::level_name(simd::active_level()), batch_width,
              scalar_only ? " (scalar mode)" : "");

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  fc.threads = 1;

  // One fleet pass supplies both the digest cross-check and the series
  // store the kernel stages below run over.
  auto t0 = bench::Clock::now();
  const auto fleet = core::run_fleet(world, fc);
  const double fleet_seconds = bench::seconds_since(t0);
  const std::uint64_t digest = core::fleet_digest(fleet);
  std::printf("fleet pass: %.2fs, digest %s\n", fleet_seconds,
              core::digest_hex(digest).c_str());

  const std::int64_t step = fleet.series.step();
  const double samples_per_day =
      static_cast<double>(util::kSecondsPerDay) / static_cast<double>(step);
  analysis::StlOptions stl_opt;
  stl_opt.period = static_cast<int>(core::kDetectionPeriodSeconds / step);

  // Sample rows long enough for the full chain (>= 2 STL periods).
  std::vector<std::size_t> rows;
  std::size_t total_samples = 0;
  for (std::size_t i = 0; i < fleet.series.rows() && rows.size() < 64; ++i) {
    const auto s = fleet.series.series(i);
    if (s.size() < 2 * static_cast<std::size_t>(stl_opt.period)) continue;
    rows.push_back(i);
    total_samples += s.size();
  }
  if (rows.empty()) {
    std::printf("FAIL: no series rows long enough to bench\n");
    return 1;
  }
  std::printf("sampled %zu blocks, %zu samples each pass\n", rows.size(),
              total_samples / rows.size());

  analysis::BlockAnalyzer az;

  // Pre-z-scored trends for the CUSUM stage (setup, untimed).
  std::vector<std::vector<double>> zrows;
  zrows.reserve(rows.size());
  for (const std::size_t i : rows) {
    const auto dec = az.decompose_stl(fleet.series.series(i), stl_opt);
    const auto z = az.zscore(dec.trend);
    zrows.emplace_back(z.begin(), z.end());
  }

  // Min-of-reps per-stage scalar throughput, every stage through one
  // warm scalar analyzer.
  double fft_best = 0, stl_best = 0, cusum_best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto t = bench::Clock::now();
    for (const std::size_t i : rows) {
      const auto d = az.diurnal(fleet.series.series(i), samples_per_day);
      g_sink = g_sink + d.power_ratio;
    }
    const double fft_s = bench::seconds_since(t);

    t = bench::Clock::now();
    for (const std::size_t i : rows) {
      const auto dec = az.decompose_stl(fleet.series.series(i), stl_opt);
      g_sink = g_sink + dec.trend[dec.trend.size() / 2];
    }
    const double stl_s = bench::seconds_since(t);

    t = bench::Clock::now();
    for (const auto& z : zrows) {
      const auto cus = az.cusum(z);
      g_sink = g_sink + static_cast<double>(cus.changes.size());
    }
    const double cusum_s = bench::seconds_since(t);

    if (rep == 0 || fft_s < fft_best) fft_best = fft_s;
    if (rep == 0 || stl_s < stl_best) stl_best = stl_s;
    if (rep == 0 || cusum_s < cusum_best) cusum_best = cusum_s;
  }
  const double n = static_cast<double>(total_samples);
  std::printf("scalar stage throughput (best of %d):\n", reps);
  std::printf("  fft/diurnal %8.3fms  (%.2f Msamples/sec)\n", fft_best * 1e3,
              n / fft_best * 1e-6);
  std::printf("  stl         %8.3fms  (%.2f Msamples/sec)\n", stl_best * 1e3,
              n / stl_best * 1e-6);
  std::printf("  cusum       %8.3fms  (%.2f Msamples/sec)\n", cusum_best * 1e3,
              n / cusum_best * 1e-6);

  // ------------------------------------------------------------------
  // Batched (SoA) stages: the same rows grouped into equal-length
  // batches of `batch_width` lanes, gathered and run through the
  // analysis/batch.h kernels.  Gather cost is timed — it is part of
  // what the batched path pays that the scalar path does not.
  // ------------------------------------------------------------------
  struct Group {
    std::array<std::size_t, analysis::kMaxBatchLanes> rows{};
    std::size_t width = 0;
    std::size_t n = 0;
  };
  std::vector<Group> groups;
  for (const std::size_t i : rows) {
    const std::size_t len = fleet.series.series(i).size();
    Group* g = nullptr;
    for (auto& cand : groups) {
      if (cand.n == len && cand.width < batch_width) {
        g = &cand;
        break;
      }
    }
    if (!g) {
      groups.emplace_back();
      g = &groups.back();
      g->n = len;
    }
    g->rows[g->width++] = i;
  }
  std::size_t max_soa = 0, max_n = 0;
  for (const auto& g : groups) {
    max_soa = std::max(max_soa, g.n * g.width);
    max_n = std::max(max_n, g.n);
  }

  analysis::Workspace bws;  // workspace backing the batched kernels
  std::vector<double> y_soa(max_soa), trend_soa(max_soa),
      seasonal_soa(max_soa), residual_soa(max_soa), z_soa(max_soa);
  std::vector<double> lane_buf(max_n);
  std::array<std::span<const double>, analysis::kMaxBatchLanes> lanes;
  std::array<analysis::DiurnalResult, analysis::kMaxBatchLanes> dres;
  const auto gather = [&](const Group& g) {
    for (std::size_t j = 0; j < g.width; ++j) {
      lanes[j] = fleet.series.series(g.rows[j]);
    }
    analysis::soa_gather(
        std::span<const std::span<const double>>(lanes.data(), g.width), g.n,
        y_soa.data());
  };

  double fft_batch_best = 0, stl_batch_best = 0;
  bool fft_bitwise = true, stl_bitwise = true;
  simd::DispatchCounts dc;
  std::size_t batch_allocs = 0, batch_pool_miss = 0;
  if (!scalar_only) {
    // Bitwise cross-check (untimed): every lane of every batched stage
    // must reproduce the scalar kernel's bytes.
    for (const auto& g : groups) {
      gather(g);
      analysis::test_diurnal_batch(y_soa.data(), g.width, g.n, samples_per_day,
                                   bws, dres.data());
      analysis::stl_decompose_batch(y_soa.data(), g.width, g.n, stl_opt, bws,
                                    trend_soa.data(), seasonal_soa.data(),
                                    residual_soa.data());
      analysis::zscore_batch(trend_soa.data(), g.width, g.n, z_soa.data());
      for (std::size_t j = 0; j < g.width; ++j) {
        const auto s = fleet.series.series(g.rows[j]);
        const auto d = az.diurnal(s, samples_per_day);
        const auto& bd = dres[j];
        fft_bitwise = fft_bitwise && d.diurnal == bd.diurnal &&
                      bits_equal(d.power_ratio, bd.power_ratio) &&
                      bits_equal(d.total_power, bd.total_power) &&
                      bits_equal(d.diurnal_power, bd.diurnal_power) &&
                      d.segments == bd.segments &&
                      d.segments_diurnal == bd.segments_diurnal;
        const auto dec = az.decompose_stl(s, stl_opt);
        analysis::soa_scatter_lane(trend_soa.data(), g.width, g.n, j,
                                   lane_buf.data());
        stl_bitwise = stl_bitwise &&
                      spans_bits_equal(lane_buf.data(), dec.trend.data(), g.n);
        analysis::soa_scatter_lane(seasonal_soa.data(), g.width, g.n, j,
                                   lane_buf.data());
        stl_bitwise =
            stl_bitwise &&
            spans_bits_equal(lane_buf.data(), dec.seasonal.data(), g.n);
        analysis::soa_scatter_lane(residual_soa.data(), g.width, g.n, j,
                                   lane_buf.data());
        stl_bitwise =
            stl_bitwise &&
            spans_bits_equal(lane_buf.data(), dec.residual.data(), g.n);
        const auto z = az.zscore(dec.trend);
        analysis::soa_scatter_lane(z_soa.data(), g.width, g.n, j,
                                   lane_buf.data());
        stl_bitwise =
            stl_bitwise && spans_bits_equal(lane_buf.data(), z.data(), g.n);
      }
    }
    if (!fft_bitwise) std::printf("FAIL: batched fft != scalar fft\n");
    if (!stl_bitwise) std::printf("FAIL: batched stl != scalar stl\n");

    // Timed batched stages, dispatch-counted so the metrics show which
    // ISA clone actually ran.
    simd::reset_dispatch_counts();
    for (int rep = 0; rep < reps; ++rep) {
      auto t = bench::Clock::now();
      for (const auto& g : groups) {
        gather(g);
        analysis::test_diurnal_batch(y_soa.data(), g.width, g.n,
                                     samples_per_day, bws, dres.data());
        g_sink = g_sink + dres[0].power_ratio;
      }
      const double fft_s = bench::seconds_since(t);

      t = bench::Clock::now();
      for (const auto& g : groups) {
        gather(g);
        analysis::stl_decompose_batch(y_soa.data(), g.width, g.n, stl_opt, bws,
                                      trend_soa.data(), seasonal_soa.data(),
                                      residual_soa.data());
        g_sink = g_sink + trend_soa[(g.n / 2) * g.width];
      }
      const double stl_s = bench::seconds_since(t);

      if (rep == 0 || fft_s < fft_batch_best) fft_batch_best = fft_s;
      if (rep == 0 || stl_s < stl_batch_best) stl_batch_best = stl_s;
    }
    dc = simd::dispatch_counts();
    std::printf("batched stage throughput (width %zu, best of %d):\n",
                batch_width, reps);
    std::printf("  fft/diurnal %8.3fms  (%.2f Msamples/sec, %.2fx scalar)\n",
                fft_batch_best * 1e3, n / fft_batch_best * 1e-6,
                fft_best / fft_batch_best);
    std::printf("  stl         %8.3fms  (%.2f Msamples/sec, %.2fx scalar)\n",
                stl_batch_best * 1e3, n / stl_batch_best * 1e-6,
                stl_best / stl_batch_best);
    std::printf("  dispatches: generic %llu, avx2 %llu\n",
                static_cast<unsigned long long>(dc.generic),
                static_cast<unsigned long long>(dc.avx2));
  }

  // ------------------------------------------------------------------
  // Allocations per block: one warm-analyzer pass over the sampled
  // blocks and (batched mode) one warm batched pass.  Both warm chains
  // must never touch the heap.
  // ------------------------------------------------------------------
  const auto span_pass = [&] {
    for (const std::size_t i : rows) {
      const auto s = fleet.series.series(i);
      const auto d = az.diurnal(s, samples_per_day);
      const auto sw = az.swing(s, fleet.series.start(), step);
      const auto dec = az.decompose_stl(s, stl_opt);
      const auto z = az.zscore(dec.trend);
      const auto cus = az.cusum(z);
      g_sink = g_sink + d.power_ratio + sw.max_daily_swing +
               static_cast<double>(cus.changes.size());
    }
  };
  const auto batch_pass = [&] {
    for (const auto& g : groups) {
      gather(g);
      analysis::test_diurnal_batch(y_soa.data(), g.width, g.n, samples_per_day,
                                   bws, dres.data());
      analysis::stl_decompose_batch(y_soa.data(), g.width, g.n, stl_opt, bws,
                                    trend_soa.data(), seasonal_soa.data(),
                                    residual_soa.data());
      analysis::zscore_batch(trend_soa.data(), g.width, g.n, z_soa.data());
      g_sink = g_sink + trend_soa[0] + z_soa[0];
    }
  };

  span_pass();  // warm the analyzer's workspace and machine buffers
  const std::size_t misses_before = az.workspace().pool_misses();

  std::size_t c0 = bench::heap_allocations();
  span_pass();
  const std::size_t span_allocs = bench::heap_allocations() - c0;
  const std::size_t pool_miss_delta =
      az.workspace().pool_misses() - misses_before;

  if (!scalar_only) {
    batch_pass();  // warm the batched workspace
    const std::size_t bmisses_before = bws.pool_misses();
    c0 = bench::heap_allocations();
    batch_pass();
    batch_allocs = bench::heap_allocations() - c0;
    batch_pool_miss = bws.pool_misses() - bmisses_before;
  }

  const double blocks = static_cast<double>(rows.size());
  std::printf(
      "allocations/block: span %.1f, batched %.1f (pool misses %zu + %zu)\n",
      static_cast<double>(span_allocs) / blocks,
      static_cast<double>(batch_allocs) / blocks, pool_miss_delta,
      batch_pool_miss);
  const bool steady_state_clean = span_allocs == 0 && pool_miss_delta == 0 &&
                                  batch_allocs == 0 && batch_pool_miss == 0;
  if (!steady_state_clean) {
    std::printf("FAIL: warm chain touched the heap (span %zu + batched %zu "
                "allocs, %zu + %zu pool misses)\n",
                span_allocs, batch_allocs, pool_miss_delta, batch_pool_miss);
  }

  bench::JsonObject build;
  build.add("compiler", DIURNAL_BENCH_COMPILER)
      .add("build_type", DIURNAL_BENCH_BUILD_TYPE)
      .add("cxx_flags", DIURNAL_BENCH_CXX_FLAGS);

  bench::JsonObject j;
  j.add("bench", "analysis")
      .add("mode", scalar_only ? "scalar" : "batched")
      .add("batch_width", static_cast<std::int64_t>(batch_width))
      .add("dataset", fc.dataset.abbr)
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("stage_reps", static_cast<std::int64_t>(reps))
      .add("fleet_seconds", fleet_seconds)
      .add("fleet_digest", core::digest_hex(digest))
      .add("sampled_blocks", static_cast<std::int64_t>(rows.size()))
      .add("samples_per_block",
           static_cast<std::int64_t>(total_samples / rows.size()))
      .add("simd_isa_detected", simd::level_name(simd::detected_level()))
      .add("simd_isa_active", simd::level_name(simd::active_level()))
      .add("fft_scalar_msamples_per_sec", n / fft_best * 1e-6)
      .add("stl_scalar_msamples_per_sec", n / stl_best * 1e-6)
      .add("cusum_msamples_per_sec", n / cusum_best * 1e-6);
  if (!scalar_only) {
    // Headline fft/stl throughput is the batched path — the one the
    // fleet drives run.
    j.add("fft_msamples_per_sec", n / fft_batch_best * 1e-6)
        .add("stl_msamples_per_sec", n / stl_batch_best * 1e-6)
        .add("fft_batch_speedup", fft_best / fft_batch_best)
        .add("stl_batch_speedup", stl_best / stl_batch_best)
        .add("fft_batch_bitwise", fft_bitwise)
        .add("stl_batch_bitwise", stl_bitwise)
        .add("dispatch_generic", static_cast<std::int64_t>(dc.generic))
        .add("dispatch_avx2", static_cast<std::int64_t>(dc.avx2));
  } else {
    j.add("fft_msamples_per_sec", n / fft_best * 1e-6)
        .add("stl_msamples_per_sec", n / stl_best * 1e-6);
  }
  j.add("span_allocs_per_block", static_cast<double>(span_allocs) / blocks)
      .add("batch_allocs_per_block",
           static_cast<double>(batch_allocs) / blocks)
      .add("workspace_pool_miss_delta",
           static_cast<std::int64_t>(pool_miss_delta + batch_pool_miss))
      .add("steady_state_alloc_free", steady_state_clean)
      .add_object("build", build);
  bench::write_bench_json("BENCH_analysis.json", j);
  const bool ok = steady_state_clean && fft_bitwise && stl_bitwise;
  return ok ? 0 : 1;
}
