// BENCH checkpoint: externalized pipeline state (util/state_io.h,
// core/checkpoint.h) — what a snapshot costs, what a resume saves, and
// proof the persistence layer never buys speed with correctness:
//
//  snapshot    mid-window StreamingFleet save/restore latency, image
//              size (bytes/block) and CRC-32 (the CI same-bytes pin),
//              with the restored engine finalizing to the reference
//              fleet digest bit-for-bit;
//  resume      sharded kill-mid-run at 10k blocks: wall-clock of the
//              interrupted run + resumed completion vs one uninterrupted
//              run, digest-gated;
//  capacity    a DIURNAL_BENCH_CKPT_BLOCKS world (default 100k) driven
//              with per-shard checkpoints, then fully resumed from its
//              shard files: the resume must cost < 10% of the full run's
//              wall-clock and stay under a pinned peak-RSS budget;
//  rejection   an intact copy of a shard file must load, and the same
//              copy with one byte flipped must be refused by the typed
//              StateError path (recorded as a receipt key the CI
//              bench-smoke gate checks).
//
// Peak RSS is read from /proc/self/status (VmHWM) with the high-water
// mark reset between phases where the kernel allows; the JSON records
// "peak_reset_supported" so a process-lifetime peak is never mistaken
// for a per-phase one.  Earlier phases run in their own scopes and the
// allocator is trimmed before the resume measurement, so the capacity
// budget judges the resume itself, not pages the earlier phases left in
// the arenas.
//
// Scale knobs: DIURNAL_BENCH_BLOCKS (snapshot world),
// DIURNAL_BENCH_CKPT_BLOCKS, DIURNAL_BENCH_CKPT_SHARD_SIZE,
// DIURNAL_BENCH_RSS_BUDGET_KB, DIURNAL_BENCH_SEED, DIURNAL_BENCH_JSON;
// DIURNAL_BENCH_CKPT_DIR keeps the capacity run's checkpoint directory
// (its shard files) on disk instead of a scratch path — the weekly
// large-world job uploads its file listing as an artifact.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#define DIURNAL_HAVE_MALLOC_TRIM 1
#endif

#include "common.h"
#include "core/checkpoint.h"
#include "core/datasets.h"
#include "core/digest.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "sim/world.h"
#include "util/mem.h"
#include "util/state_io.h"

using namespace diurnal;

namespace {

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("diurnal_bench_ckpt_") + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A CRC-32 as 8 lowercase hex digits (the BENCH_checkpoint.json form).
std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

/// Returns freed arena pages to the OS so a following peak-RSS reset
/// measures the next phase, not this one's leftovers.
void trim_heap() {
#ifdef DIURNAL_HAVE_MALLOC_TRIM
  malloc_trim(0);
#endif
}

}  // namespace

int main() {
  bench::header("BENCH checkpoint",
                "versioned state externalization: snapshot cost, resume "
                "speedup, corruption rejection",
                "see DESIGN.md section 11");

  core::FleetConfig fc;
  fc.dataset = core::dataset("2020m1-ejnw");
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  fc.threads = static_cast<int>(hw);
  const bool hwm_reset = util::peak_reset_supported();

  // ------------------------------------------------------------------
  // Phase 1: mid-window fleet snapshot — latency, size, digest gate.
  // ------------------------------------------------------------------
  const auto wc = bench::scaled_world(2000, 1);
  double save_secs = 0.0;
  std::size_t image_bytes = 0;
  std::uint32_t image_crc = 0;
  double restore_secs = 0.0;
  double n_blocks = 0.0;
  std::uint64_t ref_digest = 0;
  bool digest_ok = false;
  {
    const sim::World world(wc);
    n_blocks = static_cast<double>(world.blocks().size());
    ref_digest = core::fleet_digest(core::run_fleet(world, fc));
    std::printf("reference fleet digest %s\n",
                core::digest_hex(ref_digest).c_str());

    core::StreamingFleet engine(world, fc);
    const auto span = engine.window_end() - engine.window_start();
    engine.advance_to(engine.window_start() + span / 2);

    // Save latency, image size and checksum.
    constexpr int kReps = 5;
    std::vector<std::uint8_t> image;
    for (int rep = 0; rep < kReps; ++rep) {
      util::StateWriter w;
      const auto t0 = bench::Clock::now();
      engine.save(w);
      save_secs += bench::seconds_since(t0) / kReps;
      image = w.take();
    }
    image_bytes = image.size();
    image_crc = util::crc32(image);
    std::printf("\nsnapshot @ mid-window (%zu blocks):\n",
                world.blocks().size());
    std::printf("  save    %8.2f ms  %9zu bytes  (%.1f bytes/block, "
                "crc32 %s)\n",
                save_secs * 1e3, image_bytes, image_bytes / n_blocks,
                crc_hex(image_crc).c_str());

    // Restore latency, then the non-negotiable: the restored engine
    // must finish to the reference digest.
    core::StreamingFleet resumed(world, fc);
    const auto t_restore = bench::Clock::now();
    {
      util::StateReader r(image);
      resumed.restore(r);
    }
    restore_secs = bench::seconds_since(t_restore);
    resumed.advance_to(resumed.window_end());
    const std::uint64_t resumed_digest = core::fleet_digest(resumed.finalize());
    digest_ok = resumed_digest == ref_digest;
    std::printf("  restore %8.2f ms  -> digest %s (%s)\n",
                restore_secs * 1e3,
                core::digest_hex(resumed_digest).c_str(),
                digest_ok ? "match" : "MISMATCH");
  }

  // ------------------------------------------------------------------
  // Phase 2: kill-mid-run resume vs replay at 10k blocks.
  // ------------------------------------------------------------------
  double replay_secs = 0.0, first_secs = 0.0, resume_secs = 0.0;
  bool mid_ok = false;
  core::ShardStats mid_stats;
  std::size_t killed_after = 0;
  {
    sim::WorldConfig mid = wc;
    mid.num_blocks = 10000;
    core::ShardConfig sc;
    sc.shard_size = 1024;
    const auto dir = fresh_dir("resume10k");
    sc.checkpoint_dir = dir.string();

    const auto t_replay = bench::Clock::now();
    const auto whole = core::run_sharded_fleet(mid, fc, sc);
    replay_secs = bench::seconds_since(t_replay);
    const std::uint64_t mid_digest = core::fleet_digest(whole.fleet);

    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto killed = sc;
    killed.max_shards = whole.stats.shards / 2;
    killed_after = killed.max_shards;
    const auto t_first = bench::Clock::now();
    (void)core::run_sharded_fleet(mid, fc, killed);
    first_secs = bench::seconds_since(t_first);
    auto cont = sc;
    cont.resume = true;
    const auto t_resume = bench::Clock::now();
    const auto finished = core::run_sharded_fleet(mid, fc, cont);
    resume_secs = bench::seconds_since(t_resume);
    mid_ok = core::fleet_digest(finished.fleet) == mid_digest;
    mid_stats = finished.stats;
    std::printf(
        "\nkill-mid-run @ %zu blocks (%zu shards, killed after %zu):\n",
        mid_stats.blocks, mid_stats.shards, killed_after);
    std::printf(
        "  uninterrupted %6.2fs | interrupted %6.2fs + resumed %6.2fs "
        "(%zu shards loaded) -> digest %s\n",
        replay_secs, first_secs, resume_secs, mid_stats.resumed_shards,
        mid_ok ? "match" : "MISMATCH");
    std::filesystem::remove_all(dir);
  }

  // ------------------------------------------------------------------
  // Phase 3: capacity resume — load everything, compute nothing.
  // ------------------------------------------------------------------
  sim::WorldConfig big = wc;
  big.num_blocks = bench::env_int("DIURNAL_BENCH_CKPT_BLOCKS", 100000);
  core::ShardConfig cap;
  cap.shard_size = static_cast<std::size_t>(
      bench::env_int("DIURNAL_BENCH_CKPT_SHARD_SIZE", 4096));
  const char* keep_env = std::getenv("DIURNAL_BENCH_CKPT_DIR");
  const bool keep_dir = keep_env != nullptr && *keep_env != '\0';
  std::filesystem::path dir3;
  if (keep_dir) {
    dir3 = keep_env;
    std::filesystem::remove_all(dir3);
    std::filesystem::create_directories(dir3);
  } else {
    dir3 = fresh_dir("capacity");
  }
  cap.checkpoint_dir = dir3.string();

  double full_secs = 0.0;
  std::uint64_t cap_digest = 0;
  core::ShardStats cap_stats;
  {
    const auto t_full = bench::Clock::now();
    const auto full = core::run_sharded_fleet(big, fc, cap);
    full_secs = bench::seconds_since(t_full);
    cap_digest = core::fleet_digest(full.fleet);
    cap_stats = full.stats;
  }
  std::size_t ckpt_bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir3)) {
    ckpt_bytes += std::filesystem::file_size(e.path());
  }

  trim_heap();
  if (hwm_reset) util::reset_peak_rss();
  auto capr = cap;
  capr.resume = true;
  const auto t_cap_resume = bench::Clock::now();
  const auto restored = core::run_sharded_fleet(big, fc, capr);
  const double cap_resume_secs = bench::seconds_since(t_cap_resume);
  const auto mem = util::read_memory_usage();
  const bool cap_ok = core::fleet_digest(restored.fleet) == cap_digest &&
                      restored.stats.resumed_shards == restored.stats.shards;
  const double resume_ratio = cap_resume_secs / full_secs;

  std::printf("\ncapacity @ %zu blocks (%zu shards):\n", cap_stats.blocks,
              cap_stats.shards);
  std::printf("  full run %6.2fs, checkpoint files %.1f MB "
              "(%.1f bytes/block)\n",
              full_secs, static_cast<double>(ckpt_bytes) / 1048576.0,
              static_cast<double>(ckpt_bytes) /
                  static_cast<double>(cap_stats.blocks));
  std::printf("  resume   %6.2fs (%.1f%% of full; %zu shards loaded, %zu "
              "computed) -> digest %s\n",
              cap_resume_secs, resume_ratio * 100.0,
              restored.stats.resumed_shards, restored.stats.completed_shards,
              cap_ok ? "match" : "MISMATCH");
  std::printf("  resume peak RSS %zu KB%s\n", mem.peak_rss_kb,
              hwm_reset ? "" : " (VmHWM reset unavailable; includes all "
                               "earlier phases)");

  const std::size_t budget_kb = static_cast<std::size_t>(
      bench::env_int("DIURNAL_BENCH_RSS_BUDGET_KB", 262144));
  const bool under_budget = !mem.valid || mem.peak_rss_kb <= budget_kb;
  const bool resume_fast = resume_ratio < 0.10;
  std::printf("  resume < 10%% of full -> %s; peak RSS vs %zu KB budget -> "
              "%s\n",
              resume_fast ? "holds" : "VIOLATED", budget_kb,
              under_budget ? "under" : "OVER");

  // ------------------------------------------------------------------
  // Phase 4: corruption must be refused, not read.
  // ------------------------------------------------------------------
  bool intact_loads = false;
  bool corrupt_rejected = false;
  std::string reject_kind = "none";
  {
    // Probe a copy in a scratch directory so a kept capacity directory
    // (DIURNAL_BENCH_CKPT_DIR) stays intact.  The manager is keyed the
    // way run_sharded_fleet keys the shard files (the generator's config,
    // with the calendar filled in), and the intact copy must load first:
    // only then does refusing the corrupted copy show the corruption
    // was caught, rather than a fingerprint mismatch.
    const auto probe = fresh_dir("corrupt_probe");
    const std::string file = (probe / "shard-0.ckpt").string();
    auto bytes = util::read_state_file((dir3 / "shard-0.ckpt").string());
    const core::CheckpointManager mgr(
        probe.string(),
        core::checkpoint_fingerprint(sim::BlockGenerator(big).config(), fc,
                                     cap.shard_size),
        cap_stats.blocks, cap_stats.shard_size);
    util::write_state_file(file, bytes);
    try {
      (void)mgr.load_shard(0);
      intact_loads = true;
    } catch (const util::StateError& e) {
      std::printf("\nintact shard file refused (%s)\n",
                  util::to_string(e.kind()));
    }
    bytes[bytes.size() / 2] ^= 0xff;
    util::write_state_file(file, bytes);
    try {
      (void)mgr.load_shard(0);
    } catch (const util::StateError& e) {
      // Any typed kind counts as a rejection: which one fires depends on
      // where in the image the flipped byte lands (a section payload ->
      // bad-crc, a section's tag or length -> bad-section/truncated).
      corrupt_rejected = intact_loads;
      reject_kind = util::to_string(e.kind());
    }
    std::filesystem::remove_all(probe);
  }
  std::printf("\ncorrupt shard file -> %s (%s; intact copy %s)\n",
              corrupt_rejected ? "rejected" : "NOT REJECTED",
              reject_kind.c_str(), intact_loads ? "loads" : "REFUSED");
  if (keep_dir) {
    std::printf("checkpoint directory kept at %s\n", dir3.string().c_str());
  } else {
    std::filesystem::remove_all(dir3);
  }

  bench::JsonObject snapshot;
  snapshot.add("blocks", static_cast<std::int64_t>(n_blocks))
      .add("save_ms", save_secs * 1e3)
      .add("restore_ms", restore_secs * 1e3)
      .add("image_bytes", static_cast<std::int64_t>(image_bytes))
      .add("image_crc32", crc_hex(image_crc))
      .add("bytes_per_block", image_bytes / n_blocks)
      .add("fleet_digest", core::digest_hex(ref_digest))
      .add("restore_digest_match", digest_ok);

  bench::JsonObject resume;
  resume.add("blocks", static_cast<std::int64_t>(mid_stats.blocks))
      .add("shards", static_cast<std::int64_t>(mid_stats.shards))
      .add("killed_after_shards", static_cast<std::int64_t>(killed_after))
      .add("uninterrupted_seconds", replay_secs)
      .add("interrupted_seconds", first_secs)
      .add("resumed_seconds", resume_secs)
      .add("digest_match", mid_ok);

  bench::JsonObject capacity;
  capacity.add("blocks", static_cast<std::int64_t>(cap_stats.blocks))
      .add("shard_size", static_cast<std::int64_t>(cap_stats.shard_size))
      .add("shards", static_cast<std::int64_t>(cap_stats.shards))
      .add("full_seconds", full_secs)
      .add("resume_seconds", cap_resume_secs)
      .add("resume_ratio", resume_ratio)
      .add("checkpoint_bytes", static_cast<std::int64_t>(ckpt_bytes))
      .add("checkpoint_bytes_per_block",
           static_cast<double>(ckpt_bytes) /
               static_cast<double>(cap_stats.blocks))
      .add("resumed_shards",
           static_cast<std::int64_t>(restored.stats.resumed_shards))
      .add("computed_shards",
           static_cast<std::int64_t>(restored.stats.completed_shards))
      .add("digest_match", cap_ok)
      .add("resume_peak_rss_kb", static_cast<std::int64_t>(mem.peak_rss_kb))
      .add("rss_valid", mem.valid);

  bench::JsonObject j;
  j.add("bench", "checkpoint")
      .add("dataset", fc.dataset.abbr)
      .add("threads", static_cast<std::int64_t>(hw))
      .add("hardware_concurrency",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .add("state_format_version",
           static_cast<std::int64_t>(util::kStateFormatVersion))
      .add_object("snapshot", snapshot)
      .add_object("resume_10k", resume)
      .add_object("capacity", capacity)
      .add("peak_rss_budget_kb", static_cast<std::int64_t>(budget_kb))
      .add("under_budget", under_budget)
      .add("resume_under_10pct", resume_fast)
      .add("corrupt_rejected", corrupt_rejected)
      .add("reject_kind", reject_kind)
      .add("peak_reset_supported", hwm_reset);
  bench::write_bench_json("BENCH_checkpoint.json", j);
  return digest_ok && mid_ok && cap_ok && resume_fast && under_budget &&
                 corrupt_rejected
             ? 0
             : 1;
}
