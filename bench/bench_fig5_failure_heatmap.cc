// Reproduces paper Figure 5 and section 3.2.3: where reconstruction
// fails to recognize truly change-sensitive blocks (heatmap over scan
// time x |E(b)|), and the logistic-regression model that selects
// under-probed blocks for additional probing (paper: 0.5% false-negative
// rate; 1.8M of 5.2M blocks selected).
#include <array>
#include <cstdio>
#include <vector>

#include "analysis/logistic.h"
#include "common.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Figure 5 / s3.2.3",
                "Change-sensitivity failures by scan time and |E(b)|, and "
                "the additional-probing selection model");
  const auto wc = bench::scaled_world(2500);
  const sim::World world(wc);

  const auto ds = core::dataset("2020m1-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();

  // Per-block: ground-truth classification (from the truth series, as
  // the survey provides in the paper), reconstruction classification,
  // FBS time, and the logistic features |E(b)| and availability A.
  constexpr int kTimeBins = 7;   // <2h, <6h, <10h, <14h, <18h, <22h, >=22h
  constexpr int kSizeBins = 7;   // |E(b)| in 0..256 by 36
  int failures[kSizeBins][kTimeBins] = {};
  int population[kSizeBins][kTimeBins] = {};

  std::vector<std::vector<double>> features;
  std::vector<int> labels;
  int truth_cs = 0, truth_cs_missed = 0;
  analysis::BatchAnalyzer baz;

  for (const auto& b : world.blocks()) {
    if (b.eb_count < 8) continue;
    const auto truth = world.truth_series(b, oc.window.start, oc.window.end, 3600);
    const auto r = recon::observe_and_reconstruct(b, oc);
    // The truth series and the reconstruction, classified as one batch.
    core::BlockClassification truth_cls, cls;
    std::array<core::BatchClassifyJob, 2> jobs{{
        {truth.span(), truth.start(), truth.step(), truth.max() > 0, 1.0,
         &truth_cls},
        {r.counts.span(), r.counts.start(), r.counts.step(), r.responsive,
         r.evidence_fraction, &cls},
    }};
    core::classify_blocks_batch(jobs, {}, baz);
    const double fbs_h = r.fbs_spans_seconds.empty()
                             ? 24.0
                             : r.fbs_median_seconds() / 3600.0;
    const double availability = truth.mean() / b.eb_count;

    features.push_back({static_cast<double>(b.eb_count), availability});
    labels.push_back(fbs_h > 6.0 ? 1 : 0);

    const int tb = std::min(kTimeBins - 1, static_cast<int>(fbs_h + 2) / 4);
    const int sb = std::min(kSizeBins - 1, b.eb_count / 37);
    ++population[sb][tb];
    if (truth_cls.change_sensitive) {
      ++truth_cs;
      if (!cls.change_sensitive) {
        ++truth_cs_missed;
        ++failures[sb][tb];
      }
    }
  }

  std::printf("failures (truth change-sensitive, reconstruction missed) by\n"
              "|E(b)| (rows, ascending) x observed scan time (columns):\n\n");
  std::printf("%10s", "|E(b)| \\ t");
  const char* cols[] = {"<2h", "<6h", "<10h", "<14h", "<18h", "<22h", ">=22h"};
  for (const auto* c : cols) std::printf("%7s", c);
  std::printf("\n");
  for (int sb = 0; sb < kSizeBins; ++sb) {
    std::printf("%7d-%-3d", sb * 37, std::min(255, sb * 37 + 36));
    for (int tb = 0; tb < kTimeBins; ++tb) std::printf("%7d", failures[sb][tb]);
    std::printf("\n");
  }
  std::printf("\ntruth change-sensitive: %d; missed by reconstruction: %d "
              "(%s)\n", truth_cs, truth_cs_missed,
              truth_cs ? util::fmt_pct(static_cast<double>(truth_cs_missed) /
                                       truth_cs)
                             .c_str()
                       : "-");

  // Logistic model: predict FBS > 6h from (|E(b)|, A); select those for
  // additional probing, discarding tiny/idle blocks as the paper does.
  analysis::LogisticModel model;
  model.fit(features, labels);
  const auto metrics = analysis::evaluate(model, features, labels);
  std::int64_t selected = 0, total = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    ++total;
    if (features[i][0] >= 32 && features[i][1] >= 0.05 &&
        model.predict(features[i])) {
      ++selected;
    }
  }
  std::printf("\nlogistic selection model (features |E(b)|, availability A):\n");
  std::printf("  accuracy %s  false-negative rate %s (paper: 0.5%%)\n",
              util::fmt_pct(metrics.accuracy()).c_str(),
              util::fmt_pct(metrics.false_negative_rate()).c_str());
  std::printf("  selected for additional probing: %lld of %lld responsive "
              "(%s; paper: 1.8M of 5.2M = 35%%)\n",
              static_cast<long long>(selected), static_cast<long long>(total),
              util::fmt_pct(total ? static_cast<double>(selected) / total : 0)
                  .c_str());
  std::printf("\nShape check: failures concentrate away from the origin "
              "(long scans of large blocks), as in the paper's heatmap.\n");
  return 0;
}
