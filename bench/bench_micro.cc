// Micro benchmarks (google-benchmark) for the analysis kernels and the
// probing/reconstruction hot paths.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>

#include "analysis/cusum.h"
#include "analysis/diurnal_test.h"
#include "analysis/loess.h"
#include "analysis/stl.h"
#include "probe/prober.h"
#include "recon/reconstruct.h"
#include "sim/world.h"
#include "util/rng.h"

#include "flags.h"

using namespace diurnal;

namespace {

std::vector<double> synthetic_series(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 10 + 5 * std::sin(2 * std::numbers::pi * static_cast<double>(i) / 24.0) +
           rng.normal(0, 0.5);
  }
  return x;
}

void BM_GoertzelDiurnalTest(benchmark::State& state) {
  const auto x = synthetic_series(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::test_diurnal(x, 24.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GoertzelDiurnalTest)->Arg(672)->Arg(2016)->Arg(4032);

void BM_Loess(benchmark::State& state) {
  const auto x = synthetic_series(2016, 3);
  analysis::LoessOptions opt;
  opt.span = static_cast<int>(state.range(0));
  opt.jump = std::max(1, opt.span / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::loess_smooth(x, opt));
  }
}
BENCHMARK(BM_Loess)->Arg(25)->Arg(169)->Arg(321);

void BM_StlDecompose(benchmark::State& state) {
  const auto x = synthetic_series(static_cast<std::size_t>(state.range(0)), 4);
  analysis::StlOptions opt;
  opt.period = 168;
  opt.trend_span = 169;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::stl_decompose(x, opt));
  }
}
BENCHMARK(BM_StlDecompose)->Arg(672)->Arg(2016)->Arg(4032);

void BM_Cusum(benchmark::State& state) {
  auto x = synthetic_series(static_cast<std::size_t>(state.range(0)), 5);
  for (std::size_t i = x.size() / 2; i < x.size(); ++i) x[i] -= 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::cusum_detect(x, {1.0, 0.001}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Cusum)->Arg(2016)->Arg(11000);

const sim::World& micro_world() {
  static const sim::World world([] {
    sim::WorldConfig c;
    c.num_blocks = 200;
    c.seed = 9;
    return c;
  }());
  return world;
}

void BM_AddressOracle(benchmark::State& state) {
  const auto& world = micro_world();
  const auto* block = world.find(world.usc_office_block());
  util::SimTime t = 0;
  int addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::address_active(*block, addr, t));
    t += 660;
    addr = (addr + 1) % block->eb_count;
  }
}
BENCHMARK(BM_AddressOracle);

// One observer's whole window: the prober begun, then resumed once to
// the window end.
void probe_window(const sim::BlockProfile& block, probe::ProbeWindow window,
                  probe::ProbeScratch& scratch, probe::ObservationVec& out) {
  const probe::LossModel loss;
  const probe::ProberConfig config;
  const auto obs = probe::site('w');
  probe::RoundProberState st;
  out.clear();
  probe::round_prober_begin(block, obs, window, st);
  probe::round_prober_resume(block, obs, loss, window, config, scratch, st,
                             window.end, out);
}

void BM_ProbeBlockWeek(benchmark::State& state) {
  const auto& world = micro_world();
  const auto* block = world.find(world.usc_office_block());
  const probe::ProbeWindow window{0, 7 * util::kSecondsPerDay};
  probe::ProbeScratch scratch;
  probe::ObservationVec out;
  for (auto _ : state) {
    probe_window(*block, window, scratch, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProbeBlockWeek);

void BM_ReconstructQuarter(benchmark::State& state) {
  const auto& world = micro_world();
  const auto* block = world.find(world.usc_office_block());
  const probe::ProbeWindow window{0, 84 * util::kSecondsPerDay};
  probe::ProbeScratch scratch;
  probe::ObservationVec stream;
  probe_window(*block, window, scratch, stream);
  recon::BlockReconState recon;
  recon::ReconStats stats;
  for (auto _ : state) {
    recon.begin(block->eb_count, window);
    for (const auto& obs : stream) recon.push(obs);
    recon.finalize_stats(stats);
    benchmark::DoNotOptimize(recon.series_view().data());
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ReconstructQuarter);

}  // namespace

// BENCHMARK_MAIN(), after the DIURNAL_SIMD check every bench makes.
int main(int argc, char** argv) {
  tools::check_simd_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
