// Reproduces paper Table 3: validation of reconstruction against survey
// ground truth (2020it89-w probes every address every 11 minutes for two
// weeks).  The shapes to reproduce: (1) more observers discover more
// change-sensitive blocks; (2) shorter windows discover more; (3) the
// best reconstruction (4 observers, matched 2-week window) recovers
// ~70% of the survey's change-sensitive blocks; (4) reconstruction
// overestimates wide swing relative to ground truth.
#include <cstdio>
#include <vector>

#include "common.h"
#include "core/classify.h"
#include "core/datasets.h"
#include "recon/block_recon.h"

using namespace diurnal;

namespace {

struct OptionCounts {
  std::string name;
  std::int64_t responsive = 0;
  std::int64_t not_diurnal = 0;
  std::int64_t diurnal = 0;
  std::int64_t narrow = 0;
  std::int64_t wide = 0;
  std::int64_t not_cs = 0;
  std::int64_t cs = 0;
  std::int64_t cs_matching_truth = 0;
};

}  // namespace

int main() {
  bench::header("Table 3",
                "Counts of blocks overlapping reconstruction and surveys",
                "ground truth: 2020it89-w (full survey, 2 weeks)");
  auto wc = bench::scaled_world(2200);
  const sim::World world(wc);

  // The survey ground truth and the reconstruction options.
  struct Option {
    const char* abbr;
    bool survey;
  };
  const std::vector<Option> options{
      {"2020it89-w", true},        // ground truth
      {"2020q1-w", false},         // 1 observer, 12 weeks
      {"2020q1-ejnw", false},      // 4 observers, 12 weeks
      {"2020m1-ejnw", false},      // 4 observers, 4 weeks
      {"2020it89-ejnw", false},    // 4 observers, survey-matched 2 weeks
  };

  // Classify every responsive block under every option.
  std::vector<OptionCounts> counts(options.size());
  std::vector<std::vector<core::BlockClassification>> cls(options.size());
  for (std::size_t oi = 0; oi < options.size(); ++oi) {
    counts[oi].name = options[oi].abbr;
    const auto ds = core::dataset(options[oi].abbr);
    recon::BlockObservationConfig oc;
    oc.observers = ds.observers();
    oc.window = ds.window();
    oc.prober.kind = options[oi].survey ? probe::ProberKind::kSurvey
                                        : probe::ProberKind::kTrinocular;
    // Never-responding blocks keep the default (unresponsive) verdict.
    std::vector<recon::ReconResult> recons;
    std::vector<std::size_t> probed;
    for (std::size_t i = 0; i < world.blocks().size(); ++i) {
      const auto& b = world.blocks()[i];
      if (b.eb_count == 0) continue;
      recons.push_back(recon::observe_and_reconstruct(b, oc));
      probed.push_back(i);
    }
    std::vector<core::BlockClassification> verdicts(recons.size());
    bench::classify_batched(recons, {}, verdicts);
    cls[oi].resize(world.blocks().size());
    for (std::size_t k = 0; k < probed.size(); ++k) {
      cls[oi][probed[k]] = verdicts[k];
    }
  }

  // Restrict to blocks responsive in the survey (the "overlap").
  const auto& truth = cls[0];
  for (std::size_t oi = 0; oi < options.size(); ++oi) {
    auto& k = counts[oi];
    for (std::size_t i = 0; i < truth.size(); ++i) {
      if (!truth[i].responsive) continue;
      const auto& c = cls[oi][i];
      ++k.responsive;
      (c.diurnal ? k.diurnal : k.not_diurnal) += 1;
      (c.wide_swing ? k.wide : k.narrow) += 1;
      (c.change_sensitive ? k.cs : k.not_cs) += 1;
      if (c.change_sensitive && truth[i].change_sensitive) {
        ++k.cs_matching_truth;
      }
    }
  }

  util::TextTable table({"dataset", "responsive", "not-diurnal", "diurnal",
                         "narrow", "wide", "not-c-s", "c-s",
                         "c-s recovered"});
  for (const auto& k : counts) {
    table.add_row({k.name, util::fmt_count(k.responsive),
                   util::fmt_count(k.not_diurnal), util::fmt_count(k.diurnal),
                   util::fmt_count(k.narrow), util::fmt_count(k.wide),
                   util::fmt_count(k.not_cs), util::fmt_count(k.cs),
                   counts[0].cs
                       ? util::fmt_pct(static_cast<double>(k.cs_matching_truth) /
                                       counts[0].cs)
                       : "-"});
  }
  table.print();

  std::printf("\nShape checks vs the paper:\n");
  std::printf("  4 observers recover at least as many diurnal blocks as 1 "
              "(s2.7): %s (%lld vs %lld; paper 2,944 vs 2,300)\n",
              counts[2].diurnal >= counts[1].diurnal ? "HOLDS" : "VIOLATED",
              static_cast<long long>(counts[2].diurnal),
              static_cast<long long>(counts[1].diurnal));
  std::printf("  reconstruction finds at most as many diurnal blocks as "
              "ground truth (the main miss cause, s3.2.1): %s "
              "(truth %lld vs %lld/%lld/%lld; at our ~1:5000 scale the "
              "paper's 38%% duration-effect magnitude is within counting "
              "noise)\n",
              (counts[0].diurnal >= counts[1].diurnal &&
               counts[0].diurnal >= counts[2].diurnal)
                  ? "HOLDS"
                  : "VIOLATED",
              static_cast<long long>(counts[0].diurnal),
              static_cast<long long>(counts[1].diurnal),
              static_cast<long long>(counts[2].diurnal),
              static_cast<long long>(counts[3].diurnal));
  std::printf("  best reconstruction recovers ~70%% of truth c-s: %s (paper 3,794/5,440 = 70%%)\n",
              counts[0].cs
                  ? util::fmt_pct(static_cast<double>(counts[4].cs_matching_truth) /
                                  counts[0].cs)
                      .c_str()
                  : "-");
  std::printf("  reconstruction overestimates wide swing vs truth: %s (%lld vs truth %lld; paper 19.8k-21.3k vs 17.3k)\n",
              counts[3].wide >= counts[0].wide ? "HOLDS" : "VIOLATED",
              static_cast<long long>(counts[3].wide),
              static_cast<long long>(counts[0].wide));
  return 0;
}
