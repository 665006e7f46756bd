// Reproduces paper Figure 11 (Appendix B.1): two representative
// change-sensitive blocks — (a) a UAE block diurnal all week whose
// diurnal activity disappears with the 2020-03-24 lockdown, and (b) a
// block with a large non-Covid change (ISP renumbering in mid-February)
// whose down/up pair the detector must attribute to renumbering, not to
// human activity.
#include <cstdio>

#include "common.h"
#include "core/pipeline.h"
#include "recon/block_recon.h"

using namespace diurnal;

namespace {

void analyze(const sim::BlockProfile& block, const char* label) {
  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = probe::ProbeWindow{util::time_of(2020, 1, 1),
                                 util::time_of(2020, 4, 15)};
  const auto recon = recon::observe_and_reconstruct(block, oc);
  const auto verdict = core::analyze_block(recon);
  const auto& cls = verdict.cls;

  std::printf("%s: %s (|E(b)| = %d)\n", label, block.id.to_string().c_str(),
              recon.eb_count);
  std::printf("  change-sensitive: %s (diurnal ratio %.2f, max swing %.0f)\n",
              cls.change_sensitive ? "yes" : "no",
              cls.diurnal_detail.power_ratio, cls.swing_detail.max_daily_swing);
  const auto days = recon.counts.daily_stats();
  for (std::size_t i = 0; i < days.size(); i += 7) {
    const auto date = util::civil_from_days(util::epoch_days() + days[i].day);
    std::printf("  %s  min %4.0f max %4.0f  %s\n",
                util::to_string(date).c_str(), days[i].min, days[i].max,
                bench::bar(days[i].max / std::max(1.0, recon.max_active), 25)
                    .c_str());
  }
  for (const auto& c : verdict.changes) {
    std::printf("  %s change  alarm %s  amplitude %+.2f%s\n",
                c.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP",
                util::to_string(util::date_of(c.alarm)).c_str(), c.amplitude,
                c.filtered_as_outage ? "  [filtered: outage/renumbering pair]"
                                     : "");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::header("Figure 11", "Two representative change-sensitive blocks");
  sim::WorldConfig wc;
  wc.num_blocks = 0;
  const sim::World world(wc);

  analyze(*world.find(world.uae_case_block()),
          "(a) UAE block, diurnal activity disappears at lockdown");
  analyze(*world.find(world.renumber_case_block()),
          "(b) renumbered block, non-Covid down/up pair in mid-February");

  std::printf("paper: (a) detects the lockdown change around 2020-03-24;\n"
              "(b) shows a paired down+up (typical of outage or ISP\n"
              "renumbering) that must not be counted as human activity.\n");
  return 0;
}
