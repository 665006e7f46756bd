// outage_vs_wfh: distinguishing human-activity changes from outages.
//
// Builds two otherwise identical office blocks: one begins work-from-
// home on 2020-03-15, the other suffers a 48-hour outage the same week.
// Both produce downward CUSUM changes; the outage also produces a
// paired upward change.  The section-2.6 cross-check discards the pair
// because a raw-count blackout no longer than the detector's
// kMaxOutageDuration (48 h) begins in the down excursion and ends in
// the up one; a longer blackout would count as a change in activity.
#include <cstddef>
#include <cstdio>
#include <vector>

#include "core/pipeline.h"
#include "recon/block_recon.h"
#include "sim/world.h"

using namespace diurnal;

namespace {

sim::BlockProfile office(std::uint64_t seed) {
  sim::BlockProfile b;
  b.id = net::BlockId::parse("10.1.0.0/24");
  b.category = sim::BlockCategory::kOffice;
  b.tz_offset_hours = -8;
  b.eb_count = 96;
  b.always_on = 2;
  b.seed = seed;
  b.base_attendance = 0.93f;
  b.current_fraction = 0.4f;
  return b;
}

// Judges one block as the fleet does, prints its changes, and returns
// them.
std::vector<core::DetectedChange> analyze(const sim::BlockProfile& block,
                                          const char* label) {
  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = probe::ProbeWindow{util::time_of(2020, 1, 1),
                                 util::time_of(2020, 3, 25)};
  const auto recon = recon::observe_and_reconstruct(block, oc);
  const core::BlockOutcome verdict = core::analyze_block(recon);

  std::printf("%s:\n", label);
  if (!verdict.cls.change_sensitive) {
    std::printf("  not change-sensitive: no change detection\n");
  }
  std::size_t activity = 0;
  for (const auto& c : verdict.changes) {
    std::printf("  %s  alarm %s  amplitude %+5.1f addr  %s\n",
                c.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP ",
                util::to_string(util::date_of(c.alarm)).c_str(),
                c.amplitude_addresses,
                c.filtered_as_outage ? "[discarded: outage/renumbering pair]"
                : c.filtered_small   ? "[discarded: below amplitude floor]"
                                     : "<- human-activity change");
    activity += c.counted();
  }
  std::printf("  => %zu human-activity change(s)\n\n", activity);
  return verdict.changes;
}

bool counted_down(const std::vector<core::DetectedChange>& changes) {
  for (const auto& c : changes) {
    if (c.counted() && c.direction == analysis::ChangeDirection::kDown) {
      return true;
    }
  }
  return false;
}

// Adjacent down/up changes both discarded as an outage.
std::size_t discarded_pairs(const std::vector<core::DetectedChange>& changes) {
  std::size_t pairs = 0;
  for (std::size_t i = 0; i + 1 < changes.size(); ++i) {
    const auto& a = changes[i];
    const auto& b = changes[i + 1];
    pairs += a.direction == analysis::ChangeDirection::kDown &&
             b.direction == analysis::ChangeDirection::kUp &&
             a.filtered_as_outage && b.filtered_as_outage;
  }
  return pairs;
}

}  // namespace

int main() {
  std::printf("Two office blocks, one signal each -- who is really WFH?\n\n");

  // Block A: work-from-home from 2020-03-15 (a persistent change).
  auto wfh_block = office(111);
  wfh_block.suppressions.push_back(sim::Suppression{
      util::time_of(2020, 3, 15), util::time_of(2020, 7, 1), 0.08,
      sim::EventKind::kWorkFromHome});
  const auto a = analyze(wfh_block, "block A: WFH begins 2020-03-15");

  // Block B: a two-day outage starting 2020-03-16 (down, then right
  // back up).
  auto outage_block = office(222);
  outage_block.id = net::BlockId::parse("10.2.0.0/24");
  outage_block.outages.push_back(sim::OutageInterval{
      util::time_of(2020, 3, 16) + 6 * 3600,
      util::time_of(2020, 3, 18) + 6 * 3600});
  const auto b =
      analyze(outage_block, "block B: 48-hour outage starting 2020-03-16");

  std::printf("block A %s a counted downward change; block B has %zu "
              "down/up pair(s)\nattributed to an outage and discarded "
              "(paper section 2.6).\n",
              counted_down(a) ? "keeps" : "has no", discarded_pairs(b));
  return 0;
}
