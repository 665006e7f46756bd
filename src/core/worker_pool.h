// The engine's worker pool, shared by the streaming fleet's drives and
// the shard scheduler: a thread count resolved from the configuration,
// and a fork/join pool whose workers claim work from one shared counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace diurnal::core {

/// Worker threads for a configured count: 0 or less means hardware
/// concurrency (at least 1); capped at 64.
inline unsigned resolve_threads(int requested) {
  const unsigned n = requested > 0
                         ? static_cast<unsigned>(requested)
                         : std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(n, 64);
}

/// Runs work(next) on each of n_threads workers (each builds its own
/// scratch) and joins them; `next` is their shared work counter.  A
/// single worker runs on the calling thread.
template <typename Work>
void run_pool(unsigned n_threads, const Work& work) {
  std::atomic<std::size_t> next{0};
  auto run = [&] { work(next); };
  if (n_threads <= 1) {
    run();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(run);
  for (auto& t : pool) t.join();
}

}  // namespace diurnal::core
