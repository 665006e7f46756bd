#include "analysis/workspace.h"

#include <algorithm>

namespace diurnal::analysis {

Workspace::Lease Workspace::acquire(std::size_t n) {
  Vec* vec;
  if (free_.empty()) {
    slabs_.push_back(std::make_unique<Vec>());
    // Pre-size the free list so the noexcept release() can never need
    // an allocation: it holds at most one entry per slab.
    free_.reserve(slabs_.size());
    vec = slabs_.back().get();
    ++pool_misses_;
  } else {
    vec = free_.back();
    free_.pop_back();
  }
  if (n > vec->capacity()) ++pool_misses_;
  vec->resize(n);  // default-init: no memset of reused storage
  ++outstanding_;
  return Lease(this, vec, n);
}

Workspace::Lease Workspace::acquire_zero(std::size_t n) {
  Lease lease = acquire(n);
  std::fill_n(lease.data(), n, 0.0);
  return lease;
}

void Workspace::release(Vec* vec) noexcept {
  free_.push_back(vec);
  --outstanding_;
}

}  // namespace diurnal::analysis
