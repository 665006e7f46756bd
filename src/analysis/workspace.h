// Reusable scratch arena for the span-based analysis kernels.
//
// The per-block analysis chain (Goertzel diurnality test -> swing gate ->
// STL trend -> z-score -> CUSUM) needs a dozen scratch buffers per
// call.  Allocating them per block made the analysis stage the
// allocation-bound hot path of the fleet drive, so every kernel now
// takes `std::span<const double>` inputs and borrows scratch from a
// Workspace instead of owning vectors.
//
// Model: a Workspace owns a pool of double buffers built on
// `util::DefaultInitAllocator` (resizing never memsets storage the
// kernel is about to overwrite).  `acquire(n)` leases one buffer sized
// to n; the RAII Lease returns it on destruction.  Buffers grow to
// their high-water capacity and are then reused forever, so a warm
// workspace services the whole chain with zero heap traffic.
//
// Contracts:
//  * One Workspace per thread.  Nothing here is synchronized.
//  * Lease contents are indeterminate after acquire(); write before
//    reading (acquire_zero() when a kernel genuinely needs zeros).
//  * Leases must not outlive their Workspace.
//  * Releases may happen in any order; kernels nest freely (STL leases
//    around inner LOESS leases).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "util/default_init_allocator.h"

namespace diurnal::analysis {

class Workspace {
 public:
  using Vec = std::vector<double, util::DefaultInitAllocator<double>>;

  /// RAII handle on one pooled buffer; movable, returns the buffer on
  /// destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept : ws_(o.ws_), vec_(o.vec_), n_(o.n_) {
      o.ws_ = nullptr;
      o.vec_ = nullptr;
      o.n_ = 0;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        ws_ = o.ws_;
        vec_ = o.vec_;
        n_ = o.n_;
        o.ws_ = nullptr;
        o.vec_ = nullptr;
        o.n_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    std::span<double> span() noexcept { return {vec_->data(), n_}; }
    std::span<const double> span() const noexcept { return {vec_->data(), n_}; }
    double* data() noexcept { return vec_->data(); }
    const double* data() const noexcept { return vec_->data(); }
    std::size_t size() const noexcept { return n_; }
    double& operator[](std::size_t i) noexcept { return (*vec_)[i]; }
    double operator[](std::size_t i) const noexcept { return (*vec_)[i]; }

    /// Returns the buffer early (the destructor is then a no-op).
    void release() noexcept;

   private:
    friend class Workspace;
    Lease(Workspace* ws, Vec* vec, std::size_t n) : ws_(ws), vec_(vec), n_(n) {}
    Workspace* ws_ = nullptr;
    Vec* vec_ = nullptr;
    std::size_t n_ = 0;
  };

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Leases a buffer of n doubles with indeterminate contents.
  Lease acquire(std::size_t n);

  /// Leases a buffer of n zeros.
  Lease acquire_zero(std::size_t n);

  /// Leases currently held (tests assert this returns to zero).
  std::size_t outstanding() const noexcept { return outstanding_; }

  /// Times an acquire had to allocate or grow a buffer.  A warm
  /// workspace stops incrementing; bench_analysis gates on this.
  std::size_t pool_misses() const noexcept { return pool_misses_; }

 private:
  void release(Vec* vec) noexcept;

  std::vector<std::unique_ptr<Vec>> slabs_;  ///< every buffer ever created
  std::vector<Vec*> free_;                   ///< buffers awaiting reuse
  std::size_t outstanding_ = 0;
  std::size_t pool_misses_ = 0;
};

inline void Workspace::Lease::release() noexcept {
  if (ws_ != nullptr) ws_->release(vec_);
  ws_ = nullptr;
  vec_ = nullptr;
  n_ = 0;
}

}  // namespace diurnal::analysis
