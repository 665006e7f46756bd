// The query reader pool of diurnal_serve and bench_serve: threads that
// read a core::SnapshotServer while its writer ingests epochs.  Each
// reader pins the current snapshot, asks one query of the mix, and
// records how long the pin and the query took.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "core/snapshot_server.h"
#include "sim/block_profile.h"

namespace diurnal::tools {

/// The q-quantile (nearest rank) of ascending `sorted`; 0 when empty.
inline double quantile_us(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(i, sorted.size() - 1)];
}

/// `readers` threads querying `server` from construction until stop().
/// Each walks `blocks` by its own xorshift sequence (so readers do not
/// query the same blocks) and rotates through per-block status, trend
/// tail, alarms, gridcell rollup and scorecard queries.
class QueryReaders {
 public:
  QueryReaders(const core::SnapshotServer& server,
               std::span<const sim::BlockProfile> blocks, int readers)
      : latencies_(static_cast<std::size_t>(std::max(readers, 0))) {
    threads_.reserve(latencies_.size());
    for (std::size_t t = 0; t < latencies_.size(); ++t) {
      threads_.emplace_back([this, &server, blocks, t] {
        read(server, blocks, 0x9E3779B97F4A7C15ULL * (t + 1), latencies_[t]);
      });
    }
  }
  QueryReaders(const QueryReaders&) = delete;
  QueryReaders& operator=(const QueryReaders&) = delete;
  ~QueryReaders() { stop(); }

  /// Stops and joins the readers; returns every query latency (µs),
  /// ascending.
  std::vector<double> stop() {
    done_.store(true);
    for (auto& t : threads_) t.join();
    threads_.clear();
    std::vector<double> all;
    for (const auto& lat : latencies_) {
      all.insert(all.end(), lat.begin(), lat.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void read(const core::SnapshotServer& server,
            std::span<const sim::BlockProfile> blocks, std::uint64_t rng,
            std::vector<double>& lat) {
    lat.reserve(1 << 16);
    std::uint64_t sink = 0;
    while (!done_.load(std::memory_order_relaxed)) {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      const auto& b = blocks[rng % blocks.size()];
      const auto q0 = Clock::now();
      const auto snap = server.snapshot();
      if (snap == nullptr) {
        std::this_thread::yield();
        continue;
      }
      switch (rng % 5) {
        case 0: {
          const auto* row = snap->block(b.id);
          if (row != nullptr) sink += row->delivered;
          break;
        }
        case 1: {
          const auto tr = snap->trend(b.id);
          if (!tr.empty()) sink += static_cast<std::uint64_t>(tr.back());
          break;
        }
        case 2:
          sink += snap->alarms_for(b.id).size();
          break;
        case 3: {
          const auto* cs = snap->cell(b.cell());
          if (cs != nullptr) sink += static_cast<std::uint64_t>(cs->alarms_up);
          break;
        }
        default:
          sink += snap->scorecard().blocks_classified;
          break;
      }
      lat.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - q0)
              .count());
    }
    // Keep the queries' results alive without printing per reader.
    if (sink == 0xFFFFFFFFFFFFFFFFULL) std::puts("");
  }

  std::atomic<bool> done_{false};
  std::vector<std::vector<double>> latencies_;
  std::vector<std::thread> threads_;
};

}  // namespace diurnal::tools
