#include "validate/matcher.h"

#include <algorithm>
#include <cstdlib>

namespace diurnal::validate {

using analysis::ChangeDirection;
using util::SimTime;

std::string_view to_string(TruthClass c) noexcept {
  switch (c) {
    case TruthClass::kWfhOnset: return "wfh_onset";
    case TruthClass::kHolidayDip: return "holiday_dip";
    case TruthClass::kCurfew: return "curfew";
    case TruthClass::kHomeShift: return "home_shift";
    case TruthClass::kOccupancy: return "occupancy";
  }
  return "?";
}

namespace {

bool occupied_at(const sim::BlockProfile& b, SimTime t) {
  return sim::humans_present(b, t) && !(b.vacate_at >= 0 && t >= b.vacate_at);
}

}  // namespace

std::vector<TruthInstance> planted_truth(const sim::BlockProfile& block,
                                         probe::ProbeWindow window,
                                         const MatchOptions& opt) {
  std::vector<TruthInstance> out;
  const auto eligible = [&](SimTime t) {
    return t >= window.start + opt.min_truth_lead &&
           t <= window.end - opt.match_window;
  };

  for (const auto& sup : block.suppressions) {
    const bool home_wfh = sup.kind == sim::EventKind::kWorkFromHome &&
                          block.category == sim::BlockCategory::kHomeDynamic;
    TruthClass cls;
    switch (sup.kind) {
      case sim::EventKind::kWorkFromHome:
        cls = home_wfh ? TruthClass::kHomeShift : TruthClass::kWfhOnset;
        break;
      case sim::EventKind::kHoliday:
        cls = TruthClass::kHolidayDip;
        break;
      case sim::EventKind::kCurfewUnrest:
        cls = TruthClass::kCurfew;
        break;
      default:
        continue;
    }
    const ChangeDirection onset_dir =
        home_wfh ? ChangeDirection::kUp : ChangeDirection::kDown;
    // A suppression is observable truth only if people still used the
    // block when it started (same rule as core::validate_sample).
    if (eligible(sup.start) && occupied_at(block, sup.start)) {
      out.push_back({sup.start, onset_dir, cls});
    }
    if (opt.match_recovery &&
        sup.end - sup.start >= opt.recovery_min_duration &&
        eligible(sup.end) && occupied_at(block, sup.end)) {
      const ChangeDirection recovery_dir = home_wfh ? ChangeDirection::kDown
                                                    : ChangeDirection::kUp;
      out.push_back({sup.end, recovery_dir, cls});
    }
  }

  if (block.vacate_at >= 0 && eligible(block.vacate_at)) {
    out.push_back(
        {block.vacate_at, ChangeDirection::kDown, TruthClass::kOccupancy});
  }
  if (block.occupied_until >= 0 && eligible(block.occupied_until) &&
      occupied_at(block, block.occupied_until - 1)) {
    out.push_back({block.occupied_until, ChangeDirection::kDown,
                   TruthClass::kOccupancy});
  }
  if (block.occupied_from >= 0 && eligible(block.occupied_from)) {
    out.push_back(
        {block.occupied_from, ChangeDirection::kUp, TruthClass::kOccupancy});
  }
  // CGNAT absorption ends the publicly visible population for good —
  // the same downward occupancy-loss signature as a vacate, so it
  // shares the occupancy truth class (and its scorecard tally).
  if (block.cgnat_at >= 0 && eligible(block.cgnat_at) &&
      occupied_at(block, block.cgnat_at - 1)) {
    out.push_back(
        {block.cgnat_at, ChangeDirection::kDown, TruthClass::kOccupancy});
  }

  std::sort(out.begin(), out.end(),
            [](const TruthInstance& a, const TruthInstance& b) {
              if (a.at != b.at) return a.at < b.at;
              return static_cast<int>(a.cls) < static_cast<int>(b.cls);
            });
  return out;
}

MatchResult match_block(std::span<const TruthInstance> truth,
                        std::span<const core::DetectedChange> changes,
                        const MatchOptions& opt, SimTime warmup_until) {
  MatchResult r;

  // Confirmed, trusted detections are match candidates; everything else
  // is tallied and set aside.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    const auto& ch = changes[i];
    if (ch.filtered_as_outage) {
      ++r.outage_discards;
      continue;
    }
    if (!ch.counted()) continue;
    if (ch.low_evidence && !opt.trust_low_evidence) {
      ++r.low_evidence_excluded;
      continue;
    }
    if (ch.alarm < warmup_until) {
      ++r.warmup_excluded;
      continue;
    }
    candidates.push_back(i);
  }

  std::vector<bool> taken(candidates.size(), false);
  for (std::size_t ti = 0; ti < truth.size(); ++ti) {
    const auto& t = truth[ti];
    std::size_t best = candidates.size();
    std::int64_t best_abs = opt.match_window + 1;
    for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
      if (taken[ci]) continue;
      const auto& ch = changes[candidates[ci]];
      if (ch.direction != t.direction) continue;
      const std::int64_t abs_off = std::llabs(ch.alarm - t.at);
      if (abs_off > opt.match_window) continue;
      // Nearest wins; ties break to the earlier alarm (candidates are
      // scanned in detection order, so strict < keeps the first).
      if (abs_off < best_abs) {
        best_abs = abs_off;
        best = ci;
      }
    }
    if (best < candidates.size()) {
      taken[best] = true;
      r.matched.push_back(
          {ti, candidates[best], changes[candidates[best]].alarm - t.at});
    } else {
      r.unmatched_truth.push_back(ti);
    }
  }
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    if (!taken[ci]) r.unmatched_changes.push_back(candidates[ci]);
  }
  return r;
}

}  // namespace diurnal::validate
