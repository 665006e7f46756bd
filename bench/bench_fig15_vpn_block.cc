// Reproduces paper Figure 15 (Appendix B.2): the USC VPN block
// (128.125.52.0/24).  Ten weeks of steady heavy use, then usage drops
// off just as WFH begins — because the VPN migrated to a larger address
// block.  The change-point detector flags the drop around 2020-03-15.
#include <cstdio>

#include "common.h"
#include "core/pipeline.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Figure 15", "A VPN block (128.125.52.0/24) and detection");
  sim::WorldConfig wc;
  wc.num_blocks = 0;
  const sim::World world(wc);
  const auto* vpn = world.find(world.usc_vpn_block());

  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = probe::ProbeWindow{util::time_of(2020, 1, 1),
                                 util::time_of(2020, 3, 25)};
  const auto recon = recon::observe_and_reconstruct(*vpn, oc);
  const auto verdict = core::analyze_block(recon);
  const auto& cls = verdict.cls;

  std::printf("(a) active addresses over three months (|E(b)| = %d):\n",
              recon.eb_count);
  const auto days = recon.counts.daily_stats();
  for (std::size_t i = 0; i < days.size(); i += 4) {
    const auto date = util::civil_from_days(util::epoch_days() + days[i].day);
    std::printf("  %s  max %4.0f  %s\n", util::to_string(date).c_str(),
                days[i].max,
                bench::bar(days[i].max / std::max(1.0, recon.max_active), 35)
                    .c_str());
  }

  std::printf("\nchange-sensitive: %s\n", cls.change_sensitive ? "YES" : "no");
  std::printf("\n(b) detected changes (threshold 1, drift 0.001): N = %zu\n",
              verdict.changes.size());
  bool drop_near_wfh = false;
  for (const auto& c : verdict.changes) {
    std::printf("  %s  alarm %s  amplitude %+.2f%s\n",
                c.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP",
                util::to_string(util::date_of(c.alarm)).c_str(), c.amplitude,
                c.filtered_as_outage ? "  [outage pair]" : "");
    if (c.direction == analysis::ChangeDirection::kDown &&
        !c.filtered_as_outage &&
        std::llabs(c.alarm - util::time_of(2020, 3, 15)) <=
            4 * util::kSecondsPerDay) {
      drop_near_wfh = true;
    }
  }
  std::printf("\nShape check: a significant drop detected around 2020-03-15 "
              "(the VPN migration as WFH began): %s\n",
              drop_near_wfh ? "HOLDS" : "VIOLATED");
  std::printf("paper: the change point is detected around 2020-03-15; "
              "tracking the migration to the new block is out of scope.\n");
  return 0;
}
