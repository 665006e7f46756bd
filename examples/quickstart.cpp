// Quickstart: observe one /24 block, classify it, and detect the change
// in daily human activity caused by Covid-19 work-from-home.
//
// This reproduces the paper's running example (Figure 1): a USC office
// block whose diurnal address usage disappears when WFH begins on
// 2020-03-15.
#include <cstdio>

#include "core/pipeline.h"
#include "recon/block_recon.h"
#include "sim/world.h"

using namespace diurnal;

int main() {
  // 1. A world to observe.  In the real system this is the IPv4
  //    Internet; here it is the synthetic substrate (DESIGN.md).
  sim::WorldConfig wc;
  wc.num_blocks = 0;  // only the named case-study blocks
  sim::World world(wc);
  const sim::BlockProfile* block = world.find(world.usc_office_block());

  // 2. Probe it like Trinocular does from four healthy sites over
  //    2020q1, repair single losses, merge, and reconstruct.
  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = probe::ProbeWindow{util::time_of(2020, 1, 1),
                                 util::time_of(2020, 3, 25)};
  const recon::ReconResult recon = recon::observe_and_reconstruct(*block, oc);

  std::printf("block %s: |E(b)| = %d, max active = %.0f, reply rate = %.3f\n",
              block->id.to_string().c_str(), recon.eb_count, recon.max_active,
              recon.mean_reply_rate);

  // 3. Judge it as the fleet does.  Is the block change-sensitive
  //    (diurnal + persistent wide swing)?
  const core::BlockOutcome verdict = core::analyze_block(recon);
  const core::BlockClassification& cls = verdict.cls;
  std::printf("diurnal = %s (power ratio %.2f), wide swing = %s (max %.0f)\n",
              cls.diurnal ? "yes" : "no", cls.diurnal_detail.power_ratio,
              cls.wide_swing ? "yes" : "no", cls.swing_detail.max_daily_swing);
  std::printf("change-sensitive: %s\n", cls.change_sensitive ? "YES" : "no");

  // 4. A change-sensitive block's STL trend went through CUSUM change
  //    detection.
  for (const auto& ch : verdict.changes) {
    std::printf("  change: %s  start %s  alarm %s  amplitude %+.2f%s\n",
                ch.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP ",
                util::to_string(util::date_of(ch.start)).c_str(),
                util::to_string(util::date_of(ch.alarm)).c_str(), ch.amplitude,
                ch.filtered_as_outage ? "  [filtered: outage pair]" : "");
  }
  std::printf("ground truth: WFH began 2020-03-15\n");
  return 0;
}
