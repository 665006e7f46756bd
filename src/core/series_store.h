// Columnar (structure-of-arrays) store for per-block reconstructed
// active-count series.
//
// The fleet previously kept each block's series in its own
// heap-allocated vector inside a ReconResult; the store instead packs
// every block's samples into one contiguous buffer with uniform-stride
// rows, so the analysis chain walks cache-friendly spans and the fleet
// drive performs one allocation for the whole world instead of one per
// block.  Rows are indexed by block position (aligned with
// world.blocks() / FleetResult::outcomes).
//
// Threading: reset() sizes the buffer once up front; afterwards,
// distinct rows may be written concurrently by distinct workers without
// synchronization (disjoint memory).  set_len()/len() follow the same
// rule — one writer per row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/date.h"
#include "util/default_init_allocator.h"

namespace diurnal::core {

class SeriesStore {
 public:
  SeriesStore() = default;

  /// Sizes the store for `rows` series of up to `stride` samples each,
  /// all sharing the same start time and sampling step.  Row contents
  /// are indeterminate; each row's length starts at zero until its
  /// writer calls set_len().
  void reset(std::size_t rows, std::size_t stride, util::SimTime start,
             std::int64_t step) {
    stride_ = stride;
    start_ = start;
    step_ = step <= 0 ? 1 : step;
    data_.resize(rows * stride);  // default-init: rows are written by owners
    len_.assign(rows, 0);
  }

  std::size_t rows() const noexcept { return len_.size(); }
  std::size_t stride() const noexcept { return stride_; }
  util::SimTime start() const noexcept { return start_; }
  std::int64_t step() const noexcept { return step_; }
  bool empty() const noexcept { return len_.empty(); }

  /// Full-stride mutable row (the reconstruction's output binding).
  std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * stride_, stride_};
  }

  /// The written prefix of row i (length set_len(i, n) declared).
  std::span<const double> series(std::size_t i) const noexcept {
    return {data_.data() + i * stride_, len_[i]};
  }

  void set_len(std::size_t i, std::size_t n) noexcept {
    len_[i] = static_cast<std::uint32_t>(n);
  }
  std::size_t len(std::size_t i) const noexcept { return len_[i]; }

  /// Heap bytes held (sample buffer + length column) — the dominant
  /// per-shard residency cost the shard scheduler accounts for.
  std::size_t memory_bytes() const noexcept {
    return data_.capacity() * sizeof(double) +
           len_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<double, util::DefaultInitAllocator<double>> data_;
  std::vector<std::uint32_t> len_;
  std::size_t stride_ = 0;
  util::SimTime start_ = 0;
  std::int64_t step_ = 1;
};

}  // namespace diurnal::core
