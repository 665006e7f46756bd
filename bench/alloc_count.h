// Heap allocation counting for the benches whose gates are steady-state
// allocation counts (bench_analysis, bench_shard).  Linking
// alloc_count.cc replaces the global operator new/delete family, so
// every path into the heap through them bumps one process-wide counter.
#pragma once

#include <cstddef>

namespace diurnal::bench {

/// Heap allocations through operator new since the process started.
std::size_t heap_allocations() noexcept;

}  // namespace diurnal::bench
