#include "core/aggregate.h"

#include <algorithm>

namespace diurnal::core {

ChangeAggregator::ChangeAggregator(util::SimTime start, util::SimTime end)
    : start_(start),
      days_(static_cast<std::size_t>(
          std::max<std::int64_t>(0, (end - start + util::kSecondsPerDay - 1) /
                                        util::kSecondsPerDay))) {
  for (auto& c : by_continent_) {
    c.down.assign(days_, 0);
    c.up.assign(days_, 0);
  }
}

std::size_t ChangeAggregator::day_of(util::SimTime t) const noexcept {
  if (days_ == 0) return 0;
  const std::int64_t d = (t - start_) / util::kSecondsPerDay;
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(d, 0, static_cast<std::int64_t>(days_) - 1));
}

void ChangeAggregator::add_block(geo::GridCell cell, geo::Continent continent,
                                 const std::vector<DetectedChange>& changes) {
  auto& cs = by_cell_[cell];
  if (cs.down.empty()) {
    cs.down.assign(days_, 0);
    cs.up.assign(days_, 0);
  }
  auto& cont = by_continent_[static_cast<std::size_t>(continent)];
  ++cs.change_sensitive_blocks;
  ++cont.change_sensitive_blocks;
  for (const auto& ch : changes) {
    if (!ch.counted()) continue;
    const std::size_t d = day_of(ch.alarm);
    if (d >= days_) continue;
    if (ch.direction == analysis::ChangeDirection::kDown) {
      ++cs.down[d];
      ++cont.down[d];
    } else {
      ++cs.up[d];
      ++cont.up[d];
    }
  }
}

void ChangeAggregator::merge_from(const ChangeAggregator& other) {
  const auto fold = [this](RegionDaySeries& into, const RegionDaySeries& from) {
    into.change_sensitive_blocks += from.change_sensitive_blocks;
    for (std::size_t d = 0; d < days_; ++d) {
      into.down[d] += from.down[d];
      into.up[d] += from.up[d];
    }
  };
  for (const auto& [cell, series] : other.by_cell_) {
    auto& cs = by_cell_[cell];
    if (cs.down.empty()) {
      cs.down.assign(days_, 0);
      cs.up.assign(days_, 0);
    }
    fold(cs, series);
  }
  for (std::size_t c = 0; c < by_continent_.size(); ++c) {
    fold(by_continent_[c], other.by_continent_[c]);
  }
}

namespace {

/// One RegionDaySeries; both day vectors hold `days` counts.
template <class IO, class Series>
void region_fields(IO& io, Series& s, std::size_t days) {
  io.i64(s.change_sensitive_blocks);
  io.expect(days, "day series length does not match the window");
  if constexpr (IO::kReading) {
    s.down.assign(days, 0);
    s.up.assign(days, 0);
  }
  for (auto& v : s.down) io.i64(v);
  for (auto& v : s.up) io.i64(v);
}

}  // namespace

template <class Self, class IO>
void ChangeAggregator::fields(Self& self, IO& io) {
  io.i64(self.start_);
  io.count(self.days_);
  for (auto& c : self.by_continent_) region_fields(io, c, self.days_);
  io.entries(self.by_cell_, [&](auto& cell, auto& series) {
    io.i64(cell.lat_idx);
    io.i64(cell.lon_idx);
    region_fields(io, series, self.days_);
  });
}

void ChangeAggregator::save(util::StateWriter& w) const { fields(*this, w); }

void ChangeAggregator::restore(util::StateReader& r) { fields(*this, r); }

std::vector<ChangeAggregator::CellSnapshot> ChangeAggregator::map_snapshot(
    util::SimTime day, std::int32_t min_blocks) const {
  const std::size_t d = day_of(day);
  std::vector<CellSnapshot> out;
  for (const auto& [cell, series] : by_cell_) {
    if (series.change_sensitive_blocks < min_blocks) continue;
    CellSnapshot s;
    s.cell = cell;
    s.blocks = series.change_sensitive_blocks;
    s.down_on_day = series.down[d];
    s.down_fraction = series.down_fraction(d);
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const CellSnapshot& a, const CellSnapshot& b) {
              if (a.blocks != b.blocks) return a.blocks > b.blocks;
              return a.cell < b.cell;
            });
  return out;
}

}  // namespace diurnal::core
