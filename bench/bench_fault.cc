// BENCH fault: the degraded-fleet scenario sweep.
//
// Runs the full pipeline over one world under every named fault
// scenario (fault::scenario_names(): healthy fleet, observer dropout,
// flapping, scheduled reboots, clock skew, correlated burst loss,
// truncated rounds, and the all-at-once meltdown) and reports how the
// Table 2 funnel and the degradation accounting respond.  Two gates run
// per scenario:
//
//   1. determinism: threads=1 and threads=N must produce bit-identical
//      fleet digests even with faults injected (every fault draw is a
//      stateless hash, never shared RNG state);
//   2. the healthy scenario ("none") must match the digest of a run
//      with a default-constructed FleetConfig -- the empty plan is
//      required to be indistinguishable from no fault layer at all.
//
// Scale knobs: DIURNAL_BENCH_BLOCKS, DIURNAL_BENCH_SEED, and
// DIURNAL_BENCH_JSON (output path, default BENCH_fault.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "fault/fault_plan.h"
#include "sim/world.h"

using namespace diurnal;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t low_evidence_changes(const core::FleetResult& r) {
  std::int64_t n = 0;
  for (const auto& out : r.outcomes) {
    for (const auto& ch : out.changes) {
      if (ch.counted() && ch.low_evidence) ++n;
    }
  }
  return n;
}

}  // namespace

int main() {
  bench::header("BENCH fault",
                "fleet pipeline under observer fault scenarios",
                "degraded-mode sweep; see EXPERIMENTS.md 'bench_fault'");
  const auto wc = bench::scaled_world(1000, 1);
  const sim::World world(wc);

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());

  // Gate 2 baseline: a config that never mentions faults.
  core::FleetConfig plain;
  plain.dataset = fc.dataset;
  plain.threads = 1;
  const std::uint64_t plain_digest =
      core::fleet_digest(core::run_fleet(world, plain));

  std::printf("%-9s %7s %5s %6s %8s %6s %7s  %-16s %s\n", "scenario",
              "probed", "cs", "degr", "low-conf", "evid", "low-ev", "digest",
              "1t==Nt");

  bench::JsonObject scenarios;
  bool all_ok = true;
  for (const auto& name : fault::scenario_names()) {
    fc.faults = fault::scenario(name, fc.dataset.window());

    fc.threads = 1;
    const auto t0 = Clock::now();
    const auto fleet = core::run_fleet(world, fc);
    const double secs = seconds_since(t0);
    fc.threads = static_cast<int>(hw);
    const auto fleet_mt = core::run_fleet(world, fc);

    const std::uint64_t digest = core::fleet_digest(fleet);
    const bool deterministic = digest == core::fleet_digest(fleet_mt);
    all_ok = all_ok && deterministic;
    if (name == "none" && digest != plain_digest) {
      std::printf("VIOLATED: empty plan digest %s != no-fault-layer %s\n",
                  core::digest_hex(digest).c_str(),
                  core::digest_hex(plain_digest).c_str());
      all_ok = false;
    }

    const auto& f = fleet.funnel;
    const auto& d = fleet.degradation;
    const std::int64_t low_ev = low_evidence_changes(fleet);
    std::printf("%-9s %7lld %5lld %6lld %8lld %6.3f %7lld  %-16s %s\n",
                name.c_str(), static_cast<long long>(d.probed_blocks),
                static_cast<long long>(f.change_sensitive),
                static_cast<long long>(d.degraded_blocks),
                static_cast<long long>(d.low_confidence_blocks),
                d.mean_evidence_fraction, static_cast<long long>(low_ev),
                core::digest_hex(digest).c_str(), deterministic ? "yes" : "NO");

    bench::JsonObject s;
    s.add("seconds_1t", secs)
        .add("probed_blocks", d.probed_blocks)
        .add("responsive", f.responsive)
        .add("diurnal", f.diurnal)
        .add("wide_swing", f.wide_swing)
        .add("change_sensitive", f.change_sensitive)
        .add("degraded_blocks", d.degraded_blocks)
        .add("low_confidence_blocks", d.low_confidence_blocks)
        .add("blocks_missing_observers", d.blocks_missing_observers)
        .add("mean_evidence_fraction", d.mean_evidence_fraction)
        .add("low_evidence_changes", low_ev)
        .add("fleet_digest", core::digest_hex(digest))
        .add("deterministic", deterministic);
    scenarios.add_object(name, s);
  }

  std::printf("determinism + empty-plan identity: %s\n",
              all_ok ? "HOLD" : "VIOLATED");

  bench::JsonObject j;
  j.add("bench", "fault")
      .add("dataset", fc.dataset.abbr)
      .add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("fleet_threads_mt", static_cast<std::int64_t>(hw))
      .add("all_deterministic", all_ok)
      .add_object("scenarios", scenarios);
  bench::write_bench_json("BENCH_fault.json", j);
  return all_ok ? 0 : 1;
}
