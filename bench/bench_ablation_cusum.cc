// Ablation for section 2.6's CUSUM parameters (the paper uses threshold
// 1 and drift 0.001 on the z-scored trend): sweep both and report
// precision/recall of WFH detection on sampled change-sensitive blocks.
#include <cstdio>
#include <vector>

#include "common.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Ablation: CUSUM parameters",
                "threshold x drift sweep on the z-scored trend (section 2.6)");
  const auto wc = bench::scaled_world(4000);
  const sim::World world(wc);

  // One classification + probing pass; store the count series of
  // change-sensitive blocks so each parameter set re-runs detection only.
  core::FleetConfig fc;
  fc.dataset = core::dataset("2020q1-ejnw");
  fc.run_detection = false;
  auto fleet = core::run_fleet(world, fc);

  const auto ds = fc.dataset;
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();

  std::vector<std::size_t> cs_index;
  std::vector<util::TimeSeries> cs_counts;
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    if (!fleet.outcomes[i].cls.change_sensitive) continue;
    cs_index.push_back(i);
    cs_counts.push_back(
        recon::observe_and_reconstruct(world.blocks()[i], oc).counts);
  }
  std::printf("change-sensitive blocks: %zu\n\n", cs_index.size());

  util::TextTable t({"threshold", "drift", "changes/block", "precision",
                     "recall"});
  for (const double threshold : {0.5, 1.0, 2.0, 4.0}) {
    for (const double drift : {0.0, 0.001, 0.01}) {
      core::DetectorOptions opt;
      opt.cusum = analysis::CusumOptions{threshold, drift};
      core::BatchDetector det(opt);
      for (std::size_t k = 0; k < cs_index.size(); ++k) {
        const auto& counts = cs_counts[k];
        det.enqueue(counts.span(), counts.start(), counts.step(),
                    &fleet.outcomes[cs_index[k]].changes);
      }
      det.flush();
      std::int64_t total_changes = 0;
      for (std::size_t k = 0; k < cs_index.size(); ++k) {
        for (const auto& c : fleet.outcomes[cs_index[k]].changes) {
          total_changes += !c.filtered_as_outage;
        }
      }
      core::ValidationConfig vc;
      vc.window = ds.window();
      vc.sample_size = 120;
      const auto v = core::validate_sample(world, fleet, vc);
      t.add_row({util::fmt(threshold, 1), util::fmt(drift, 3),
                 util::fmt(cs_index.empty()
                               ? 0.0
                               : static_cast<double>(total_changes) /
                                     cs_index.size(),
                           2),
                 util::fmt_pct(v.precision()), util::fmt_pct(v.recall())});
    }
  }
  t.print();

  std::printf("\nExpectations: low thresholds flood the detector with\n"
              "changes (recall up, precision down); high thresholds miss\n"
              "moderate WFH drops.  The paper's threshold 1 / drift 0.001\n"
              "sits at the precision/recall knee.\n");
  return 0;
}
