// BENCH shard: the paper-scale drive — sharded fleet execution with a
// bounded resident set, gated on two contracts:
//
//  equivalence  sharded runs over the 2000-block reference world must
//               reproduce the unsharded fleet digest bit-for-bit at
//               every shard size {1, 7, 64, whole-world}, thread count
//               {1, hardware}, and with a fault plan active;
//  capacity     a DIURNAL_BENCH_SHARD_BLOCKS world (default 100k; the
//               scheduled large-world job drives >= 1M and the paper's
//               5.2M) must finish under a pinned peak-RSS budget with
//               the resident-shard count never exceeding max_resident.
//
// Peak RSS is read from /proc/self/status (VmHWM), with the kernel
// high-water mark reset via /proc/self/clear_refs between phases so the
// capacity phase is measured on its own.  The replaced global
// operator new (alloc_count.h, shared with bench_analysis) counts heap
// allocations to keep the scheduler's steady-state allocation story
// honest.
//
// Scale knobs: DIURNAL_BENCH_BLOCKS (equivalence world),
// DIURNAL_BENCH_SHARD_BLOCKS, DIURNAL_BENCH_SHARD_SIZE,
// DIURNAL_BENCH_SHARD_RESIDENT, DIURNAL_BENCH_RSS_BUDGET_KB,
// DIURNAL_BENCH_SEED, DIURNAL_BENCH_JSON.
#include <cstdio>
#include <string>
#include <thread>

#include "alloc_count.h"
#include "common.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "fault/fault_plan.h"
#include "sim/world.h"
#include "util/mem.h"

using namespace diurnal;

namespace {

/// One equivalence case: sharded digest vs the reference.
bool check_case(const char* label, const sim::WorldConfig& wc,
                const core::FleetConfig& fc, const core::ShardConfig& sc,
                std::uint64_t want) {
  const auto r = core::run_sharded_fleet(wc, fc, sc);
  const std::uint64_t got = core::fleet_digest(r.fleet);
  const bool ok = got == want;
  std::printf("  %-34s digest %s -> %s\n", label,
              core::digest_hex(got).c_str(), ok ? "match" : "MISMATCH");
  return ok;
}

}  // namespace

int main() {
  bench::header("BENCH shard",
                "sharded fleet: digest equivalence + bounded-memory capacity",
                "paper-scale drive; see DESIGN.md section 10");

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  fc.threads = static_cast<int>(hw);

  // ------------------------------------------------------------------
  // Equivalence matrix over the reference world.
  // ------------------------------------------------------------------
  const auto wc = bench::scaled_world(2000, 1);
  const sim::World world(wc);
  const auto ref = core::run_fleet(world, fc);
  const std::uint64_t ref_digest = core::fleet_digest(ref);
  std::printf("unsharded reference digest %s\n",
              core::digest_hex(ref_digest).c_str());

  bool ok = true;
  int cases = 0;
  for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                 std::size_t{64}, std::size_t{0}}) {
    core::ShardConfig sc;
    sc.shard_size = size;
    char label[64];
    std::snprintf(label, sizeof label, "shard_size=%zu threads=%u", size, hw);
    ok &= check_case(label, wc, fc, sc, ref_digest);
    ++cases;
  }
  {
    auto fc1 = fc;
    fc1.threads = 1;
    core::ShardConfig sc;
    sc.shard_size = 7;
    ok &= check_case("shard_size=7 threads=1", wc, fc1, sc, ref_digest);
    ++cases;
  }
  {
    auto fcf = fc;
    fcf.faults = fault::scenario("dropout", fc.dataset.window());
    const std::uint64_t fault_ref =
        core::fleet_digest(core::run_fleet(world, fcf));
    for (const std::size_t size : {std::size_t{7}, std::size_t{64}}) {
      core::ShardConfig sc;
      sc.shard_size = size;
      char label[64];
      std::snprintf(label, sizeof label, "dropout shard_size=%zu", size);
      ok &= check_case(label, wc, fcf, sc, fault_ref);
      ++cases;
    }
  }
  std::printf("equivalence: %d/%d cases %s\n", cases, cases,
              ok ? "hold" : "VIOLATED");

  // ------------------------------------------------------------------
  // Capacity run: a large lazily-materialized universe, bounded memory.
  // ------------------------------------------------------------------
  sim::WorldConfig big = wc;
  big.num_blocks = bench::env_int("DIURNAL_BENCH_SHARD_BLOCKS", 100000);
  const bool layered = bench::env_int("DIURNAL_BENCH_SHARD_LAYERED", 0) != 0;
  if (layered) {
    // Layered multi-country continent world (DESIGN §12): CGNAT drift
    // everywhere, northern DST clocks across Europe/US, and a
    // southern-season country with an annual holiday — so the weekly
    // capacity run drives every generator layer at scale, not just the
    // neutral registry.
    sim::CountryLayerOverride all;
    all.cgnat_trend_per_year = 0.2;
    big.country_layers.push_back(std::move(all));
    for (const char* code : {"US", "DE", "GB", "FR"}) {
      sim::CountryLayerOverride o;
      o.code = code;
      o.dst = geo::DstPolicy::kNorthern;
      big.country_layers.push_back(std::move(o));
    }
    sim::CountryLayerOverride au;
    au.code = "AU";
    au.dst = geo::DstPolicy::kSouthern;
    geo::AnnualHoliday summer;
    summer.name = "bench-summer-break";
    summer.month = 1;
    summer.day = 2;
    summer.duration_days = 10;
    summer.adoption = 0.5;
    au.holidays.push_back(std::move(summer));
    big.country_layers.push_back(std::move(au));
  }
  core::ShardConfig sc;
  sc.shard_size =
      static_cast<std::size_t>(bench::env_int("DIURNAL_BENCH_SHARD_SIZE", 4096));
  sc.max_resident = static_cast<std::size_t>(
      bench::env_int("DIURNAL_BENCH_SHARD_RESIDENT", 4));

  const bool hwm_reset = util::reset_peak_rss();
  const auto before = util::read_memory_usage();
  const std::size_t allocs_before = bench::heap_allocations();
  const auto t0 = bench::Clock::now();
  const auto cap = core::run_sharded_fleet(big, fc, sc);
  const double secs = bench::seconds_since(t0);
  const std::size_t allocs = bench::heap_allocations() - allocs_before;
  const auto after = util::read_memory_usage();

  const double n_blocks = static_cast<double>(cap.stats.blocks);
  std::printf("\ncapacity: %zu blocks, %zu shards of %zu, "
              "%zu workers x %zu intra-threads%s\n",
              cap.stats.blocks, cap.stats.shards, cap.stats.shard_size,
              cap.stats.workers, cap.stats.intra_threads,
              layered ? " (layered continent world)" : "");
  std::printf("  %.2fs  (%.1f blocks/sec)\n", secs, n_blocks / secs);
  std::printf("  peak resident shards %zu (cap %zu), accounted %.1f MB\n",
              cap.stats.peak_resident, sc.max_resident,
              static_cast<double>(cap.stats.peak_resident_bytes) / 1048576.0);
  std::printf("  RSS before %zu KB, after %zu KB, peak %zu KB%s\n",
              before.rss_kb, after.rss_kb, after.peak_rss_kb,
              hwm_reset ? "" : " (VmHWM reset unavailable; peak includes "
                               "the equivalence phase)");
  std::printf("  heap allocations %zu (%.1f per block)\n", allocs,
              static_cast<double>(allocs) / n_blocks);
  bench::print_funnel("capacity funnel", cap.fleet.funnel);

  // The pinned budget for the default 100k-block capacity run (measured
  // ~93 MB peak; 256 MB leaves headroom for allocator and page-table
  // variance across machines).  Override with the world size when
  // scaling up or down (the CI smoke and large-world jobs pass their
  // own).
  const std::size_t budget_kb = static_cast<std::size_t>(
      bench::env_int("DIURNAL_BENCH_RSS_BUDGET_KB", 262144));
  const bool under_budget = !after.valid || after.peak_rss_kb <= budget_kb;
  const bool resident_ok = cap.stats.peak_resident <= sc.max_resident;
  std::printf("peak RSS %zu KB vs budget %zu KB -> %s\n", after.peak_rss_kb,
              budget_kb, under_budget ? "under" : "OVER");

  bench::JsonObject equiv;
  equiv.add("world_blocks", static_cast<std::int64_t>(world.blocks().size()))
      .add("world_seed", static_cast<std::int64_t>(wc.seed))
      .add("cases", cases)
      .add("digests_match", ok)
      .add("fleet_digest", core::digest_hex(ref_digest));

  bench::JsonObject capacity;
  capacity.add("blocks", static_cast<std::int64_t>(cap.stats.blocks))
      .add("shard_size", static_cast<std::int64_t>(cap.stats.shard_size))
      .add("shards", static_cast<std::int64_t>(cap.stats.shards))
      .add("max_resident", static_cast<std::int64_t>(sc.max_resident))
      .add("workers", static_cast<std::int64_t>(cap.stats.workers))
      .add("intra_threads", static_cast<std::int64_t>(cap.stats.intra_threads))
      .add("seconds", secs)
      .add("blocks_per_sec", n_blocks / secs)
      .add("peak_resident", static_cast<std::int64_t>(cap.stats.peak_resident))
      .add("peak_resident_bytes",
           static_cast<std::int64_t>(cap.stats.peak_resident_bytes))
      .add("heap_allocations", static_cast<std::int64_t>(allocs))
      .add("allocs_per_block", static_cast<double>(allocs) / n_blocks)
      .add("rss_before_kb", static_cast<std::int64_t>(before.rss_kb))
      .add("rss_after_kb", static_cast<std::int64_t>(after.rss_kb))
      .add("peak_rss_kb", static_cast<std::int64_t>(after.peak_rss_kb))
      .add("hwm_reset_ok", hwm_reset)
      .add("rss_valid", after.valid);

  bench::JsonObject j;
  j.add("bench", "shard")
      .add("dataset", fc.dataset.abbr)
      .add("threads", static_cast<std::int64_t>(hw))
      .add_object("equivalence", equiv)
      .add_object("capacity", capacity)
      .add("peak_rss_budget_kb", static_cast<std::int64_t>(budget_kb))
      .add("under_budget", under_budget)
      .add("resident_within_cap", resident_ok);
  bench::write_bench_json("BENCH_shard.json", j);
  return ok && under_budget && resident_ok ? 0 : 1;
}
