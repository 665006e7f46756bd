// Ablation for section 2.4's design choices: the wide-swing threshold
// (the paper picks s = 5, the smallest value tolerating a few
// uncorrelated restarts) and the 4-of-7-day persistence rule (tolerating
// weekends and 3-day holiday weekends).  One probing pass; every block
// is re-classified under each parameter set.
#include <cstdio>
#include <vector>

#include "common.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Ablation: swing classification",
                "threshold s and the 4-of-7 persistence rule (section 2.4)");
  const auto wc = bench::scaled_world(4000);
  const sim::World world(wc);

  const auto ds = core::dataset("2020m1-ejnw");
  recon::BlockObservationConfig oc;
  oc.observers = ds.observers();
  oc.window = ds.window();

  // One probing pass; keep the reconstructions of responsive blocks.
  std::vector<recon::ReconResult> recons;
  std::vector<int> truth_diurnal_cat;
  for (const auto& b : world.blocks()) {
    if (b.eb_count == 0) continue;
    recons.push_back(recon::observe_and_reconstruct(b, oc));
    truth_diurnal_cat.push_back(sim::is_diurnal_category(b.category) ? 1 : 0);
  }
  std::printf("responsive-capable blocks probed: %zu\n\n", recons.size());
  std::vector<core::BlockClassification> verdicts(recons.size());

  util::TextTable t({"min swing s", "rule", "wide blocks", "change-sensitive",
                     "c-s that are truly diurnal"});
  struct Rule {
    const char* name;
    int window;
    int min_days;
  };
  const Rule rules[] = {
      {"4 of 7 (paper)", 7, 4},
      {"6 of 7 (strict)", 7, 6},
      {"1 of 7 (loose)", 7, 1},
  };
  for (const double s : {1.0, 3.0, 5.0, 8.0, 12.0}) {
    for (const auto& rule : rules) {
      core::ClassifierOptions opt;
      opt.swing.min_swing = s;
      opt.swing.window_days = rule.window;
      opt.swing.min_wide_days = rule.min_days;
      bench::classify_batched(recons, opt, verdicts);
      std::int64_t wide = 0, cs = 0, cs_truth = 0;
      for (std::size_t i = 0; i < recons.size(); ++i) {
        const auto& cls = verdicts[i];
        wide += cls.wide_swing;
        cs += cls.change_sensitive;
        cs_truth += cls.change_sensitive && truth_diurnal_cat[i];
      }
      t.add_row({util::fmt(s, 0), rule.name, util::fmt_count(wide),
                 util::fmt_count(cs),
                 cs ? util::fmt_pct(static_cast<double>(cs_truth) / cs) : "-"});
    }
  }
  t.print();

  std::printf("\nExpectations: lowering s admits noise blocks (the truly-\n"
              "diurnal share of change-sensitive drops); raising s above 5\n"
              "sheds small genuine offices.  The loose 1-of-7 rule admits\n"
              "one-off restarts; the strict 6-of-7 rule rejects work-week\n"
              "blocks that rest on weekends (the paper's reason for 4-of-7).\n");
  return 0;
}
