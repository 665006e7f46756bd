#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "geo/countries.h"
#include "util/rng.h"

namespace diurnal::core {

std::string_view to_string(BlockVerdict v) noexcept {
  switch (v) {
    case BlockVerdict::kNoWfhInWindow: return "no-WFH-in-window";
    case BlockVerdict::kTruePositive: return "true-positive";
    case BlockVerdict::kFalsePositiveOutage: return "false-positive(outage)";
    case BlockVerdict::kFalseNegative: return "false-negative";
    case BlockVerdict::kCusumFarFromWfh: return "CUSUM-far-from-WFH";
    case BlockVerdict::kNoCusum: return "no-CUSUM";
  }
  return "?";
}

namespace {

// Scores one change-sensitive block against its ground truth.
SampledBlock score_block(const sim::BlockProfile& block,
                         const BlockOutcome& outcome,
                         const ValidationConfig& cfg) {
  SampledBlock s;
  s.id = block.id;
  s.low_confidence = outcome.cls.low_confidence;
  const auto& country = geo::countries()[block.country];
  s.country = country.code;

  // Is there a documented WFH date for this block's country inside the
  // analysis window?
  std::optional<util::SimTime> news_date;
  if (country.wfh_2020) {
    const util::SimTime t = util::time_of(*country.wfh_2020);
    const bool windowed = cfg.window.end > cfg.window.start;
    if (!windowed || (t >= cfg.window.start &&
                      t + kMatchWindow < cfg.window.end)) {
      news_date = t;
    }
  }
  if (!news_date) {
    s.verdict = BlockVerdict::kNoWfhInWindow;
    return s;
  }

  // Ground truth: did this block's population actually shift near the
  // documented date?  Besides WFH adoption, concurrent events count as
  // real human-activity changes (the paper cannot separate the Wuhan
  // lockdown from Spring Festival either, section 4.2) — except home
  // blocks under WFH, whose signal is an *increase*, and vacated blocks
  // like the USC VPN, which are genuine downward changes.
  std::vector<util::SimTime> truth_times;
  for (const auto& sup : block.suppressions) {
    if (sup.kind == sim::EventKind::kWorkFromHome &&
        block.category == sim::BlockCategory::kHomeDynamic) {
      continue;
    }
    // A suppression is only observable truth if people were still using
    // the block when it started.
    if (!sim::occupied_at(block, sup.start)) continue;
    if (std::abs(sup.start - *news_date) <= kMatchWindow) {
      truth_times.push_back(sup.start);
    }
  }
  if (block.vacate_at >= 0 &&
      std::abs(block.vacate_at - *news_date) <= kMatchWindow) {
    truth_times.push_back(block.vacate_at);
  }

  // Detections: unfiltered downward alarms.  A true positive is any
  // detection within the match window of a truth change (or, when the
  // block has a truth change, of the news date itself — the paper's
  // manual raw-data confirmation).
  bool matched = false;
  bool near_news = false;
  bool any_change = false;
  std::int64_t best_offset = kMatchWindow + 1;
  for (const auto& ch : outcome.changes) {
    if (!ch.counted()) continue;
    if (ch.low_evidence && !kTrustLowEvidence) {
      ++s.low_evidence_changes;
      continue;
    }
    any_change = true;
    if (ch.direction != analysis::ChangeDirection::kDown) continue;
    if (std::abs(ch.alarm - *news_date) <= kMatchWindow) near_news = true;
    for (const util::SimTime t : truth_times) {
      const std::int64_t offset = ch.alarm - t;
      if (std::abs(offset) <= kMatchWindow) {
        matched = true;
        if (std::abs(offset) < std::abs(best_offset)) best_offset = offset;
      }
    }
  }

  if (matched || (near_news && !truth_times.empty())) {
    s.detection_offset_days =
        matched ? best_offset / util::kSecondsPerDay : 0;
    s.verdict = BlockVerdict::kTruePositive;
  } else if (near_news) {
    s.verdict = BlockVerdict::kFalsePositiveOutage;
  } else if (!truth_times.empty()) {
    s.verdict = BlockVerdict::kFalseNegative;
  } else {
    s.verdict = any_change ? BlockVerdict::kCusumFarFromWfh
                           : BlockVerdict::kNoCusum;
  }
  return s;
}

void tally(SampleValidation& v, const SampledBlock& s) {
  ++v.total;
  v.low_evidence_changes += s.low_evidence_changes;
  if (s.low_confidence) ++v.low_confidence_blocks;
  switch (s.verdict) {
    case BlockVerdict::kNoWfhInWindow:
      ++v.no_wfh_in_window;
      return;
    case BlockVerdict::kTruePositive:
      ++v.true_positive;
      ++v.cusum_near_wfh;
      break;
    case BlockVerdict::kFalsePositiveOutage:
      ++v.false_positive;
      ++v.cusum_near_wfh;
      break;
    case BlockVerdict::kFalseNegative:
      ++v.false_negative;
      ++v.no_cusum_near;
      break;
    case BlockVerdict::kCusumFarFromWfh:
      ++v.cusum_far;
      ++v.no_cusum_near;
      break;
    case BlockVerdict::kNoCusum:
      ++v.no_cusum;
      ++v.no_cusum_near;
      break;
  }
  ++v.wfh_in_window;
}

}  // namespace

SampleValidation validate_sample(const sim::World& world,
                                 const FleetResult& fleet,
                                 const ValidationConfig& config) {
  std::vector<std::size_t> cs_indices;
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    if (fleet.outcomes[i].cls.change_sensitive) cs_indices.push_back(i);
  }
  util::Xoshiro256 rng(config.seed);
  // Fisher-Yates prefix shuffle for the sample.
  const std::size_t n =
      std::min<std::size_t>(cs_indices.size(),
                            static_cast<std::size_t>(config.sample_size));
  for (std::size_t i = 0; i < n && cs_indices.size() > 1; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(cs_indices.size() - i));
    std::swap(cs_indices[i], cs_indices[j]);
  }
  cs_indices.resize(n);

  SampleValidation v;
  for (const std::size_t i : cs_indices) {
    const auto s = score_block(world.blocks()[i], fleet.outcomes[i], config);
    v.blocks.push_back(s);
    tally(v, s);
  }
  return v;
}

LocationValidation validate_location(const sim::World& world,
                                     const FleetResult& fleet,
                                     geo::GridCell cell,
                                     const ValidationConfig& config) {
  LocationValidation loc;
  loc.cell = cell;
  loc.label = cell.to_string();

  std::vector<std::size_t> in_cell;
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    if (!fleet.outcomes[i].cls.change_sensitive) continue;
    if (world.blocks()[i].cell() == cell) in_cell.push_back(i);
  }

  // Peak day across all change-sensitive blocks of the cell.
  std::unordered_map<std::int64_t, int> down_per_day;
  for (const std::size_t i : in_cell) {
    for (const auto& ch : fleet.outcomes[i].changes) {
      if (!ch.counted() ||
          ch.direction != analysis::ChangeDirection::kDown) {
        continue;
      }
      ++down_per_day[util::day_index(ch.alarm)];
    }
  }
  for (const auto& [day, count] : down_per_day) {
    if (count > loc.peak_down_count) {
      loc.peak_down_count = count;
      loc.peak_day = day * util::kSecondsPerDay;
    }
  }
  if (!in_cell.empty()) {
    loc.peak_down_fraction =
        static_cast<double>(loc.peak_down_count) /
        static_cast<double>(in_cell.size());
  }

  // Score a random sample of the cell's blocks.
  util::Xoshiro256 rng(config.seed ^ 0xCE11ULL);
  const std::size_t n =
      std::min<std::size_t>(in_cell.size(),
                            static_cast<std::size_t>(config.sample_size));
  for (std::size_t i = 0; i < n && in_cell.size() > 1; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.below(in_cell.size() - i));
    std::swap(in_cell[i], in_cell[j]);
  }
  in_cell.resize(n);
  for (const std::size_t i : in_cell) {
    const auto s =
        score_block(world.blocks()[i], fleet.outcomes[i], config);
    loc.sample.blocks.push_back(s);
    tally(loc.sample, s);
  }
  return loc;
}

}  // namespace diurnal::core
