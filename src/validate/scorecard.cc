#include "validate/scorecard.h"

#include <cstdlib>

namespace diurnal::validate {

using util::SimTime;

int Scorecard::truth_total() const noexcept {
  int n = 0;
  for (const auto& c : classes) n += c.truth;
  return n;
}

int Scorecard::true_positive() const noexcept {
  int n = 0;
  for (const auto& c : classes) n += c.matched;
  return n;
}

int Scorecard::false_negative() const noexcept {
  int n = 0;
  for (const auto& c : classes) n += c.missed;
  return n;
}

std::optional<double> Scorecard::f1() const noexcept {
  const auto p = precision();
  const auto r = recall();
  if (!p || !r) return std::nullopt;
  if (*p + *r == 0.0) return std::nullopt;
  return 2.0 * *p * *r / (*p + *r);
}

std::optional<double> Scorecard::mean_abs_latency_days() const noexcept {
  std::int64_t sum = 0;
  int n = 0;
  for (const auto& c : classes) {
    sum += c.abs_latency_sum;
    n += c.matched;
  }
  const auto r = core::safe_ratio(sum, n);
  if (!r) return std::nullopt;
  return *r / static_cast<double>(util::kSecondsPerDay);
}

namespace {

/// True when t sits within the match window of a planted outage
/// interval's edge or a renumbering instant — the excursions the pair
/// filter exists to discard.
bool near_planted_artifact(const sim::BlockProfile& block, SimTime t) {
  constexpr std::int64_t w = core::kMatchWindow;
  if (block.renumber_at >= 0 && std::llabs(t - block.renumber_at) <= w) {
    return true;
  }
  for (const auto& o : block.outages) {
    if (t >= o.start - w && t <= o.end + w) return true;
  }
  return false;
}

}  // namespace

std::string_view to_string(ExplainEntry::What w) noexcept {
  switch (w) {
    case ExplainEntry::What::kFalsePositive: return "false-positive";
    case ExplainEntry::What::kMissedTruth: return "missed-truth";
    case ExplainEntry::What::kDiscarded: return "discarded";
    case ExplainEntry::What::kLowEvidence: return "low-evidence";
    case ExplainEntry::What::kWarmup: return "warmup";
  }
  return "?";
}

void score_block(const sim::BlockProfile& block,
                 const core::BlockOutcome& outcome, probe::ProbeWindow window,
                 Scorecard& card, std::vector<ExplainEntry>* explain) {
  const bool diurnal_block = sim::is_diurnal_category(block.category) ||
                             block.category == sim::BlockCategory::kMixed;
  if (!outcome.cls.change_sensitive) {
    // Detection never ran here; planted truth is recall lost upstream.
    if (diurnal_block) {
      card.truth_outside_detection +=
          static_cast<int>(planted_truth(block, window).size());
    }
    return;
  }

  ++card.blocks_scored;
  const auto truth = planted_truth(block, window);
  // Alarms before this instant cannot match any eligible truth (truth
  // starts at window.start + kMinTruthLead); they measure the
  // detector's cold start, not its steady-state precision.
  const SimTime warmup_until =
      window.start + kMinTruthLead - core::kMatchWindow;
  const auto m = match_block(truth, outcome.changes, warmup_until);

  card.outage_discards += m.outage_discards;
  card.low_evidence_excluded += m.low_evidence_excluded;
  card.warmup_excluded += m.warmup_excluded;
  for (const auto& pair : m.matched) {
    auto& tally = card.of(truth[pair.truth].cls);
    ++tally.truth;
    ++tally.matched;
    tally.abs_latency_sum += std::llabs(pair.offset);
  }
  for (const std::size_t ti : m.unmatched_truth) {
    auto& tally = card.of(truth[ti].cls);
    ++tally.truth;
    ++tally.missed;
    if (explain != nullptr) {
      explain->push_back({block.id, block.category,
                          ExplainEntry::What::kMissedTruth, truth[ti].at,
                          truth[ti].direction, 0.0, truth[ti].cls, false});
    }
  }
  for (const std::size_t ci : m.unmatched_changes) {
    ++card.false_positive;
    const auto& ch = outcome.changes[ci];
    const bool near = near_planted_artifact(block, ch.alarm);
    if (near) ++card.fp_outage_artifact;
    if (explain != nullptr) {
      explain->push_back({block.id, block.category,
                          ExplainEntry::What::kFalsePositive, ch.alarm,
                          ch.direction, ch.amplitude_addresses,
                          TruthClass::kWfhOnset, near});
    }
  }
  if (explain != nullptr) {
    for (const auto& ch : outcome.changes) {
      if (ch.filtered_as_outage) {
        explain->push_back({block.id, block.category,
                            ExplainEntry::What::kDiscarded, ch.alarm,
                            ch.direction, ch.amplitude_addresses,
                            TruthClass::kWfhOnset,
                            near_planted_artifact(block, ch.alarm)});
      } else if (ch.counted() && ch.low_evidence &&
                 !core::kTrustLowEvidence) {
        explain->push_back({block.id, block.category,
                            ExplainEntry::What::kLowEvidence, ch.alarm,
                            ch.direction, ch.amplitude_addresses,
                            TruthClass::kWfhOnset, false});
      } else if (ch.counted() && ch.alarm < warmup_until) {
        explain->push_back({block.id, block.category,
                            ExplainEntry::What::kWarmup, ch.alarm,
                            ch.direction, ch.amplitude_addresses,
                            TruthClass::kWfhOnset, false});
      }
    }
  }

  if (block.renumber_at >= window.start && block.renumber_at < window.end) {
    ++card.outage_pairs_planted;
  }
  for (const auto& o : block.outages) {
    if (o.start >= window.start && o.start < window.end) {
      ++card.outage_pairs_planted;
    }
  }
}

Scorecard score_fleet(const sim::World& world, const core::FleetResult& fleet,
                      probe::ProbeWindow window,
                      std::vector<ExplainEntry>* explain) {
  Scorecard card;
  const auto& blocks = world.blocks();
  for (std::size_t i = 0; i < fleet.outcomes.size() && i < blocks.size();
       ++i) {
    score_block(blocks[i], fleet.outcomes[i], window, card, explain);
  }
  return card;
}

}  // namespace diurnal::validate
