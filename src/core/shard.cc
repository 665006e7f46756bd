#include "core/shard.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/streaming.h"
#include "core/worker_pool.h"

namespace diurnal::core {

namespace {

/// Atomic running maximum.
void track_peak(std::atomic<std::size_t>& peak, std::size_t value) {
  std::size_t seen = peak.load(std::memory_order_relaxed);
  while (seen < value &&
         !peak.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedFleetResult run_sharded_fleet(const sim::WorldConfig& world_config,
                                     const FleetConfig& config,
                                     const ShardConfig& shards) {
  return run_sharded_fleet(sim::BlockGenerator(world_config), config, shards);
}

ShardedFleetResult run_sharded_fleet(const sim::BlockGenerator& generator,
                                     const FleetConfig& config,
                                     const ShardConfig& shards) {
  const std::size_t total = generator.total_blocks();
  const std::size_t shard_size =
      shards.shard_size == 0 ? std::max<std::size_t>(total, 1)
                             : shards.shard_size;
  const std::size_t n_shards =
      total == 0 ? 0 : (total + shard_size - 1) / shard_size;

  const auto window = config.dataset.window();
  const std::size_t stride = recon::sample_count(window, config.recon);

  ShardedFleetResult out{{}, ChangeAggregator(window.start, window.end), {}};
  out.fleet.outcomes.resize(total);
  out.fleet.degradation.blocks.resize(total);

  // Worker topology: each shard worker owns at most one resident shard,
  // so min(threads, max_resident) workers enforce the residency cap by
  // construction; leftover parallelism goes inside the shard runs (the
  // single-shard / whole-world case degrades to one worker driving a
  // fully parallel StreamingFleet).
  const unsigned threads = resolve_threads(config.threads);
  const std::size_t max_resident = std::max<std::size_t>(1, shards.max_resident);
  const auto n_workers = static_cast<unsigned>(std::max<std::size_t>(
      1, std::min({static_cast<std::size_t>(threads), max_resident,
                   std::max<std::size_t>(n_shards, 1)})));
  const int intra_threads = static_cast<int>(std::max(1u, threads / n_workers));

  std::atomic<std::size_t> resident{0};
  std::atomic<std::size_t> peak_resident{0};
  std::atomic<std::size_t> resident_bytes{0};
  std::atomic<std::size_t> peak_resident_bytes{0};
  std::mutex agg_mu;

  // Checkpoint/resume prologue: fold every shard whose file loads into
  // the global result before any worker starts; `done` shards are skipped
  // by the claim loop.  Any StateError (missing file, flipped byte,
  // truncation, foreign fingerprint) just leaves the shard to be
  // recomputed — a bad checkpoint can cost time, never correctness.
  std::optional<CheckpointManager> ckpt;
  std::vector<char> done(n_shards, 0);
  std::size_t resumed = 0;
  if (!shards.checkpoint_dir.empty()) {
    ckpt.emplace(shards.checkpoint_dir,
                 checkpoint_fingerprint(generator.config(), config, shard_size),
                 total, shard_size);
    if (shards.resume) {
      for (std::size_t k = 0; k < n_shards; ++k) {
        try {
          ShardCheckpoint sc = ckpt->load_shard(k);
          for (std::size_t i = 0; i < sc.outcomes.size(); ++i) {
            out.fleet.outcomes[sc.begin + i] = std::move(sc.outcomes[i]);
            out.fleet.degradation.blocks[sc.begin + i] = sc.degradation[i];
          }
          out.aggregate.merge_from(sc.aggregate);
          done[k] = 1;
          ++resumed;
        } catch (const util::StateError&) {
          // missing or unreadable shard file: recompute it below
        }
      }
    }
  }

  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> computed{0};

  // Shard workers claim shards from the pool's shared counter.
  run_pool(n_workers, [&](std::atomic<std::size_t>& next_shard) {
    sim::WorldSlice slice;
    ChangeAggregator local_agg(window.start, window.end);
    for (;;) {
      const std::size_t k = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (k >= n_shards) break;
      if (done[k]) continue;
      // The kill-mid-run cap counts claims, not completions, so a capped
      // run processes exactly min(cap, remaining) shards at any worker
      // count (the checkpoint tests rely on the exact count).
      if (shards.max_shards != 0 &&
          claimed.fetch_add(1, std::memory_order_relaxed) >=
              shards.max_shards) {
        break;
      }
      const std::size_t begin = k * shard_size;
      const std::size_t end = std::min(begin + shard_size, total);

      track_peak(peak_resident, resident.fetch_add(1) + 1);
      slice.materialize(generator, begin, end);
      // Account the slice plus the shard-local series store the engine
      // is about to allocate ((end-begin) rows of `stride` samples plus
      // the length column) for the whole time both are resident.
      const std::size_t bytes = slice.memory_bytes() +
                                (end - begin) * stride * sizeof(double) +
                                (end - begin) * sizeof(std::uint32_t);
      track_peak(peak_resident_bytes, resident_bytes.fetch_add(bytes) + bytes);

      FleetConfig shard_config = config;
      shard_config.threads = intra_threads;
      StreamingFleet engine(slice.blocks(), shard_config);
      FleetResult r = engine.run_to_completion();

      // Fold: disjoint global rows, so no synchronization needed.
      for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        out.fleet.outcomes[begin + i] = std::move(r.outcomes[i]);
      }
      out.fleet.degradation.absorb_rows(r.degradation, begin);
      // Aggregate while the slice (block locations) is still resident.
      // With checkpointing the shard gets its own aggregator — its
      // series is what the checkpoint file stores (merge_from is
      // commutative, so folding it into local_agg afterwards reproduces
      // the uncheckpointed accumulation exactly).
      ChangeAggregator shard_agg(window.start, window.end);
      add_changes(ckpt ? shard_agg : local_agg, slice.blocks(),
                  std::span(out.fleet.outcomes).subspan(begin, end - begin));
      if (ckpt) {
        ckpt->record_shard(k, begin, end, out.fleet, shard_agg);
        local_agg.merge_from(shard_agg);
      }
      computed.fetch_add(1, std::memory_order_relaxed);

      // Retire: drop the shard's series store and block population.
      r = FleetResult{};
      resident_bytes.fetch_sub(bytes);
      slice.release();
      resident.fetch_sub(1);
    }
    const std::lock_guard<std::mutex> lock(agg_mu);
    out.aggregate.merge_from(local_agg);
  });

  out.fleet.funnel = FunnelCounts{};
  for (const auto& o : out.fleet.outcomes) out.fleet.funnel.add(o.cls);
  out.fleet.degradation.finalize();

  out.stats.shards = n_shards;
  out.stats.shard_size = shard_size;
  out.stats.blocks = total;
  out.stats.workers = n_workers;
  out.stats.intra_threads = static_cast<std::size_t>(intra_threads);
  out.stats.peak_resident = peak_resident.load();
  out.stats.peak_resident_bytes = peak_resident_bytes.load();
  out.stats.resumed_shards = resumed;
  out.stats.completed_shards = computed.load();
  return out;
}

}  // namespace diurnal::core
