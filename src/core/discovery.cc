#include "core/discovery.h"

#include <algorithm>

#include "analysis/stats.h"
#include "util/table.h"

namespace diurnal::core {

std::string DiscoveredEvent::to_string() const {
  std::string out = cell.to_string();
  out += " ";
  out += util::to_string(util::date_of(start));
  if (end - start > util::kSecondsPerDay) {
    out += "..";
    out += util::to_string(util::date_of(end - 1));
  }
  out += " peak ";
  out += std::to_string(peak_blocks);
  out += "/";
  out += std::to_string(cell_blocks);
  out += " blocks (";
  out += util::fmt_pct(peak_fraction);
  out += ")";
  return out;
}

std::vector<DiscoveredEvent> discover_events(const ChangeAggregator& agg) {
  analysis::Workspace ws;
  return discover_events(agg, ws);
}

std::vector<DiscoveredEvent> discover_events(const ChangeAggregator& agg,
                                             analysis::Workspace& ws) {
  std::vector<DiscoveredEvent> out;
  for (const auto& [cell, series] : agg.by_cell()) {
    if (series.change_sensitive_blocks < kDiscoveryMinBlocks) continue;

    // Sliding-window sums: one regional event's detections spread over
    // several days.
    const std::size_t days = series.down.size();
    constexpr std::size_t w = kDiscoveryWindowDays;
    if (days < w) continue;
    auto lease = ws.acquire_zero(days - w + 1);
    const std::span<double> windowed = lease.span();
    double running = 0.0;
    for (std::size_t i = 0; i < days; ++i) {
      running += series.down[i];
      if (i >= w) running -= series.down[i - w];
      if (i + 1 >= w) windowed[i + 1 - w] = running;
    }

    // Baseline: the 75th percentile of the windowed counts.  A low-order
    // statistic over *all* windows keeps the spikes themselves from
    // inflating the baseline (most windows in most cells are quiet).
    const double baseline =
        std::max(1.0, analysis::quantile(windowed, 0.75, ws));
    const double blocks = static_cast<double>(series.change_sensitive_blocks);

    std::size_t d = 0;
    while (d < windowed.size()) {
      const auto spike = [&](std::size_t i) {
        return windowed[i] >= kDiscoveryMinCount &&
               windowed[i] / blocks >= kDiscoveryMinFraction &&
               windowed[i] >= kDiscoverySpikeFactor * baseline;
      };
      if (!spike(d)) {
        ++d;
        continue;
      }
      DiscoveredEvent ev;
      ev.cell = cell;
      ev.cell_blocks = series.change_sensitive_blocks;
      ev.start = agg.start() +
                 static_cast<util::SimTime>(d) * util::kSecondsPerDay;
      std::size_t last = d;
      for (std::size_t i = d; i < windowed.size() && i <= last + 1; ++i) {
        if (!spike(i)) continue;
        last = i;
        if (static_cast<int>(windowed[i]) > ev.peak_blocks) {
          ev.peak_blocks = static_cast<int>(windowed[i]);
          ev.peak_fraction = windowed[i] / blocks;
        }
      }
      ev.end = agg.start() + static_cast<util::SimTime>(last + w) *
                                 util::kSecondsPerDay;
      out.push_back(ev);
      d = last + 1;
    }
  }
  // A total order: by_cell() iterates in insertion-history order, which
  // differs between drives that merge shard aggregators differently.
  std::sort(out.begin(), out.end(),
            [](const DiscoveredEvent& a, const DiscoveredEvent& b) {
              if (a.peak_fraction != b.peak_fraction) {
                return a.peak_fraction > b.peak_fraction;
              }
              if (a.cell != b.cell) return a.cell < b.cell;
              return a.start < b.start;
            });
  return out;
}

}  // namespace diurnal::core
