#include "oracle.h"

#include <algorithm>
#include <array>
#include <iterator>

namespace diurnal::oracle {

void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const core::DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<core::DetectedChange>& changes) {
  changes.clear();
  const int period = core::detection_period(counts.size(), step);
  if (period == 0) return;

  const auto dec = az.decompose_stl(counts, core::detector_stl_options(period));
  const auto z = az.zscore(dec.trend);
  const auto cus = az.cusum(z, opt.cusum);
  core::extract_changes(counts, start, step, period, opt, cus.changes,
                        dec.trend, az.workspace(), changes);
}

analysis::SwingResult classify_swing(const std::vector<util::DayStats>& days,
                                     const analysis::SwingOptions& opt) {
  analysis::SwingResult r;
  if (days.empty()) return r;
  r.total_days = static_cast<int>(days.size());

  // Mark wide days on a dense day-index axis so "consecutive" windows are
  // calendar windows even if some days lack samples.
  const std::int64_t first = days.front().day;
  const std::int64_t last = days.back().day;
  const std::size_t span = static_cast<std::size_t>(last - first + 1);
  std::vector<char> wide_day(span, 0);
  for (const auto& d : days) {
    r.max_daily_swing = std::max(r.max_daily_swing, d.swing());
    if (d.swing() >= opt.min_swing) {
      wide_day[static_cast<std::size_t>(d.day - first)] = 1;
      ++r.wide_days;
    }
  }

  const std::size_t w = static_cast<std::size_t>(std::max(opt.window_days, 1));
  int in_window = 0;
  for (std::size_t i = 0; i < span; ++i) {
    in_window += wide_day[i];
    if (i >= w) in_window -= wide_day[i - w];
    r.best_window_wide = std::max(r.best_window_wide, in_window);
  }
  r.wide = r.best_window_wide >= opt.min_wide_days;
  return r;
}

probe::ObservationVec probe_block(const sim::BlockProfile& block,
                                  const probe::ObserverSpec& observer,
                                  const probe::LossModel& loss,
                                  probe::ProbeWindow window,
                                  const probe::ProberConfig& config) {
  probe::ProbeScratch scratch;
  probe::RoundProberState state;
  probe::ObservationVec out;
  probe::round_prober_begin(block, observer, window, state);
  probe::round_prober_resume(block, observer, loss, window, config, scratch,
                             state, window.end, out);
  return out;
}

recon::RepairStats one_loss_repair(probe::ObservationVec& stream) {
  recon::RepairStats stats;
  stats.observations = stream.size();

  // Per-address indices of the last and second-to-last observations.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::array<std::size_t, 256> last{};
  std::array<std::size_t, 256> prev{};
  last.fill(kNone);
  prev.fill(kNone);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::uint8_t a = stream[i].addr;
    if (stream[i].up && last[a] != kNone && prev[a] != kNone &&
        !stream[last[a]].up && stream[prev[a]].up) {
      stream[last[a]].up = true;  // 101 -> 111
      ++stats.repaired;
    }
    prev[a] = last[a];
    last[a] = i;
  }
  return stats;
}

void merge_observations_into(const std::vector<probe::ObservationVec>& streams,
                             probe::ObservationVec& out) {
  out.clear();
  // K-way merge with a linear min-scan over the stream heads (one per
  // observer), needing no intermediate vectors.
  struct Head {
    const probe::Observation* it;
    const probe::Observation* end;
  };
  Head stack_heads[16];
  std::vector<Head> heap_heads;
  Head* heads = stack_heads;
  if (streams.size() > std::size(stack_heads)) {
    heap_heads.resize(streams.size());
    heads = heap_heads.data();
  }

  std::size_t k = 0;
  std::size_t total = 0;
  for (const auto& s : streams) {
    if (s.empty()) continue;
    // Heads stay in stream order so a tie picks the lowest stream index.
    heads[k++] = Head{s.data(), s.data() + s.size()};
    total += s.size();
  }
  out.reserve(total);

  while (k > 1) {
    std::size_t best = 0;
    std::uint32_t best_time = heads[0].it->rel_time;
    for (std::size_t i = 1; i < k; ++i) {
      if (heads[i].it->rel_time < best_time) {
        best = i;
        best_time = heads[i].it->rel_time;
      }
    }
    out.push_back(*heads[best].it);
    if (++heads[best].it == heads[best].end) {
      for (std::size_t i = best; i + 1 < k; ++i) heads[i] = heads[i + 1];
      --k;
    }
  }
  if (k == 1) out.insert(out.end(), heads[0].it, heads[0].end);
}

recon::ReconResult reconstruct(const probe::ObservationVec& merged,
                               int eb_count, probe::ProbeWindow window,
                               const recon::ReconOptions& opt) {
  recon::BlockReconState state;
  state.begin(eb_count, window, opt);
  for (const auto& obs : merged) state.push(obs);
  recon::ReconStats stats;
  state.finalize_stats(stats);
  return recon::ReconResult(stats, state.series_view());
}

}  // namespace diurnal::oracle
