// Reproduces paper Figure 1: the running example block (128.9.144.0/24
// at USC) whose diurnal address usage disappears when Covid-19
// work-from-home begins on 2020-03-15.
//   (a) active addresses over three months, with holidays visible;
//   (b) STL decomposition into trend / seasonal / residual;
//   (c) CUSUM change detection on the z-scored trend (threshold 1,
//       drift 0.001).
#include <cstdio>

#include "analysis/stl.h"
#include "common.h"
#include "core/pipeline.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Figure 1", "A block illustrating address usage changes "
                            "due to confirmed WFH (128.9.144.0/24)");
  sim::WorldConfig wc;
  wc.num_blocks = 0;
  const sim::World world(wc);
  const auto* block = world.find(world.usc_office_block());

  recon::BlockObservationConfig oc;
  oc.observers = probe::sites_from_string("ejnw");
  oc.window = probe::ProbeWindow{util::time_of(2020, 1, 1),
                                 util::time_of(2020, 3, 25)};
  const auto recon = recon::observe_and_reconstruct(*block, oc);

  std::printf("(a) active addresses (|E(b)| = %d, red line in the paper; "
              "daily min/max of the blue line):\n", recon.eb_count);
  const auto days = recon.counts.daily_stats();
  for (std::size_t i = 0; i < days.size(); i += 2) {
    const auto date = util::civil_from_days(util::epoch_days() + days[i].day);
    std::printf("  %s  min %4.0f  max %4.0f  %s\n",
                util::to_string(date).c_str(), days[i].min, days[i].max,
                bench::bar(days[i].max / 20.0, 30).c_str());
  }

  const auto verdict = core::analyze_block(recon);
  const auto& cls = verdict.cls;
  std::printf("\nclassification: diurnal=%s (power ratio %.2f), wide "
              "swing=%s (max %.0f) -> change-sensitive=%s\n",
              cls.diurnal ? "yes" : "no", cls.diurnal_detail.power_ratio,
              cls.wide_swing ? "yes" : "no", cls.swing_detail.max_daily_swing,
              cls.change_sensitive ? "YES" : "no");

  // The detector's own STL configuration for this series.
  const auto& counts = recon.counts;
  const auto dec = analysis::stl_decompose(
      counts.span(), core::detector_stl_options(core::detection_period(
                         counts.size(), counts.step())));
  std::printf("\n(b) STL decomposition (weekly period; every 4th day shown):\n");
  std::printf("  %-12s %8s %16s %9s\n", "date", "trend", "seasonal[min,max]",
              "residual");
  for (std::size_t i = 0; i + 96 <= dec.trend.size(); i += 96) {
    double smin = 1e9, smax = -1e9, rabs = 0;
    for (std::size_t j = i; j < i + 96; ++j) {
      smin = std::min(smin, dec.seasonal[j]);
      smax = std::max(smax, dec.seasonal[j]);
      rabs += std::abs(dec.residual[j]) / 96.0;
    }
    std::printf("  %-12s %8.2f  [%6.2f,%6.2f] %9.2f\n",
                util::to_string(util::date_of(counts.time_at(i))).c_str(),
                dec.trend[i], smin, smax, rabs);
  }

  std::printf("\n(c) CUSUM detection (threshold 1, drift 0.001): N changes = %zu\n",
              verdict.changes.size());
  for (const auto& c : verdict.changes) {
    std::printf("  %s change: start %s  alarm %s  end %s  amplitude %+.2f%s\n",
                c.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP",
                util::to_string(util::date_of(c.start)).c_str(),
                util::to_string(util::date_of(c.alarm)).c_str(),
                util::to_string(util::date_of(c.end)).c_str(), c.amplitude,
                c.filtered_as_outage ? "  [outage pair]" : "");
  }
  std::printf("\nground truth: MLK holiday 2020-01-20, Presidents' Day "
              "2020-02-17, WFH begins 2020-03-15.\n");
  std::printf("paper: one change detected, start 2020-03-08, alarm "
              "2020-03-18, around the true 2020-03-15.\n");
  return 0;
}
