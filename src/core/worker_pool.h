// The engine's worker pool, shared by the streaming fleet's drives and
// the shard scheduler: a thread count resolved from the configuration,
// and a fork/join pool whose workers claim work from one shared counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace diurnal::core {

/// Most threads the engine runs in one pool.  The tools' query readers
/// (diurnal_serve --readers, bench_serve) are bounded by it too.
inline constexpr int kMaxThreads = 64;

/// Worker threads for a configured count: 0 or less means hardware
/// concurrency (at least 1); capped at kMaxThreads.
inline unsigned resolve_threads(int requested) {
  const unsigned n = requested > 0
                         ? static_cast<unsigned>(requested)
                         : std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(n, kMaxThreads);
}

/// Runs work(next) on each of n_threads workers (each builds its own
/// scratch) and joins them; `next` is their shared work counter.  A
/// single worker runs on the calling thread.  When workers throw, the
/// first exception is rethrown on the calling thread once every worker
/// has joined.
template <typename Work>
void run_pool(unsigned n_threads, const Work& work) {
  std::atomic<std::size_t> next{0};
  if (n_threads <= 1) {
    work(next);
    return;
  }
  std::exception_ptr failure;
  std::mutex failure_mu;
  auto run = [&] {
    try {
      work(next);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  };
  {
    // A jthread joins when destroyed, so every started worker has
    // joined here, also when a later thread cannot be started.
    std::vector<std::jthread> pool;
    pool.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(run);
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace diurnal::core
