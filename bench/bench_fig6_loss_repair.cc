// Reproduces paper Figure 6 (section 3.3): congestive loss at one
// observer and its correction by 1-loss repair.  The paper's sample
// block (2023q2): healthy observers see mean reply rates ~0.62, the
// congested observer w sees 0.479; repair lifts w to 0.552 and the
// all-observer reconstruction from 0.581 to 0.622.
#include <cstdio>
#include <vector>

#include "common.h"
#include "recon/block_recon.h"

using namespace diurnal;

int main() {
  bench::header("Figure 6", "Congestive loss and 1-loss repair",
                "dataset: 2023q2 window; all five 2023 sites (c e g n w)");
  sim::WorldConfig wc = bench::scaled_world(600, 1, false);
  wc.only_country = "CN";
  wc.horizon_start = util::time_of(2023, 4, 1);
  wc.horizon_end = util::time_of(2023, 7, 1);
  wc.include_special_blocks = false;
  const sim::World world(wc);

  // Pick a busy block reached by observer w over the congested link.
  probe::LossModel loss{};
  const sim::BlockProfile* target = nullptr;
  for (const auto& b : world.blocks()) {
    if (b.category == sim::BlockCategory::kServerFarm && b.eb_count >= 64 &&
        loss.path_congested(probe::site('w'), b)) {
      target = &b;
      break;
    }
  }
  if (target == nullptr) {
    std::printf("no congested block in sample; enlarge the world\n");
    return 1;
  }
  std::printf("sample block: %s (|E(b)| = %d, server farm, behind the "
              "congested w link)\n\n",
              target->id.to_string().c_str(), target->eb_count);

  recon::BlockObservationConfig base;
  base.observers = probe::sites_from_string("cegnw");
  base.window = probe::ProbeWindow{util::time_of(2023, 4, 1),
                                   util::time_of(2023, 6, 3)};
  recon::BlockObservationConfig no_repair = base;
  no_repair.one_loss_repair = false;

  // Each observer alone is the same pipeline over a one-observer config.
  struct Rates {
    char code;
    double without, with;
  };
  std::vector<Rates> per_observer;
  for (const auto& spec : base.observers) {
    recon::BlockObservationConfig single = base;
    single.observers = {spec};
    const double with =
        recon::observe_and_reconstruct(*target, single).mean_reply_rate;
    single.one_loss_repair = false;
    per_observer.push_back(
        {spec.code,
         recon::observe_and_reconstruct(*target, single).mean_reply_rate,
         with});
  }
  const double all_with =
      recon::observe_and_reconstruct(*target, base).mean_reply_rate;
  const double all_without =
      recon::observe_and_reconstruct(*target, no_repair).mean_reply_rate;

  util::TextTable t({"reconstruction", "w/o 1-loss repair", "w/ 1-loss repair"});
  for (const Rates& r : per_observer) {
    t.add_row({std::string(1, r.code) + " only", util::fmt(r.without, 3),
               util::fmt(r.with, 3)});
  }
  t.add_row({"all observers", util::fmt(all_without, 3),
             util::fmt(all_with, 3)});
  t.print();

  double healthy_mean = 0.0;
  double w_without = 0.0, w_with = 0.0;
  int healthy_n = 0;
  for (const Rates& r : per_observer) {
    if (r.code == 'w') {
      w_without = r.without;
      w_with = r.with;
    } else {
      healthy_mean += r.without;
      ++healthy_n;
    }
  }
  healthy_mean /= std::max(1, healthy_n);

  std::printf("\nShape checks vs the paper:\n");
  std::printf("  congested observer w below the healthy sites: %s "
              "(w %.3f vs healthy mean %.3f; paper 0.479 vs 0.620)\n",
              w_without < healthy_mean - 0.02 ? "HOLDS" : "VIOLATED",
              w_without, healthy_mean);
  std::printf("  repair lifts w: %s (%.3f -> %.3f; paper 0.479 -> 0.552)\n",
              w_with > w_without ? "HOLDS" : "VIOLATED", w_without, w_with);
  std::printf("  repair lifts the all-observer reconstruction toward the "
              "healthy rate: %s (%.3f -> %.3f; paper 0.581 -> 0.622)\n",
              all_with > all_without ? "HOLDS" : "VIOLATED", all_without,
              all_with);
  // Repair also fixes genuine single-round blips (session churn), so
  // healthy observers move a little; the congested observer must move
  // much more.
  const double healthy_delta =
      std::abs(per_observer[0].with - per_observer[0].without);
  std::printf("  repair moves the congested observer more than a healthy "
              "one: %s (w %+0.3f vs %c %+0.3f)\n",
              (w_with - w_without) > healthy_delta ? "HOLDS" : "VIOLATED",
              w_with - w_without, per_observer[0].code, healthy_delta);
  return 0;
}
