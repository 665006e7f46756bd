#include "core/series_store.h"

#include <algorithm>
#include <cstdint>

namespace diurnal::core {

void SeriesStore::reset(std::size_t rows, std::size_t stride,
                        util::SimTime start, std::int64_t step) {
  stride_ = stride;
  start_ = start;
  step_ = step <= 0 ? 1 : step;
  data_.resize(rows * stride);  // default-init: rows are written by owners
  len_.assign(rows, 0);
}

void SeriesStore::copy_rows(const SeriesStore& src,
                            std::size_t first) noexcept {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const auto s = src.series(i);
    std::copy(s.begin(), s.end(), row(first + i).begin());
    set_len(first + i, s.size());
  }
}

template <class Self, class IO>
void SeriesStore::fields(Self& self, IO& io, std::size_t first,
                         std::size_t rows) {
  std::size_t stride = self.stride_;
  io.u64(rows);
  io.u64(stride);
  io.i64(self.start_);
  io.i64(self.step_);
  if constexpr (IO::kReading) {
    // A row costs at least two bytes (count and packing tag), a full one
    // a byte per sample.  Empty rows (unprobed blocks) are legitimate, so
    // the section cannot bound rows × stride itself.
    if ((stride != 0 && rows > SIZE_MAX / stride) ||
        rows > io.remaining() / 2 || stride > io.remaining()) {
      util::bad_value("series geometry exceeds what the image holds");
    }
    self.reset(rows, stride, self.start_, self.step_);
  }
  for (std::size_t i = 0; i < rows; ++i) {
    if constexpr (IO::kReading) {
      const auto row = self.row(i);
      const std::size_t len = io.f64_span_into(row);
      std::fill(row.begin() + static_cast<std::ptrdiff_t>(len), row.end(),
                0.0);
      self.set_len(i, len);
    } else {
      io.f64_span(self.series(first + i));
    }
  }
}

void SeriesStore::save(util::StateWriter& w) const {
  fields(*this, w, 0, rows());
}

void SeriesStore::save_rows(util::StateWriter& w, std::size_t first,
                            std::size_t n) const {
  fields(*this, w, first, n);
}

void SeriesStore::restore(util::StateReader& r) { fields(*this, r, 0, 0); }

}  // namespace diurnal::core
