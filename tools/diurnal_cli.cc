// diurnal_cli: command-line driver for the full pipeline.
//
//   diurnal_cli run      [--blocks N] [--seed S] [--dataset D]
//                        [--classify D2] [--country CC] [--out PREFIX]
//                        [--fault SCENARIO] [--discover] [--validate]
//                        [--stream] [--epoch=DUR]
//                        [--shards N | --shard-size S] [--max-resident M]
//                        [--checkpoint-dir DIR] [--resume]
//                        [--max-shards K]
//   diurnal_cli block    [--dataset D] [--id A.B.C.0/24 | --usc | --vpn]
//                        [--fault SCENARIO]
//   diurnal_cli datasets
//   diurnal_cli sites
//   diurnal_cli faults
//
// `run` executes probe -> reconstruct -> classify -> detect -> aggregate
// over a synthetic world, optionally exporting CSVs (--out), discovering
// regional events (--discover), and scoring against ground truth
// (--validate).  `block` judges one /24 on the fleet's own finish path
// (core::analyze_block) and prints the Figure-1-style story, with the
// tags the engine sets on each change.  `--fault` injects a named observer
// fault scenario (see `faults`) and reports the degradation summary.
// `--stream` drives the fleet incrementally, one epoch (--epoch=1d, 6h,
// 660s, ...) at a time, printing per-epoch delivery counts and
// provisional change alarms before the authoritative final result —
// which is bit-identical to the batch run.  `--shards`/`--shard-size`
// select the bounded-memory sharded drive (blocks materialized lazily,
// at most --max-resident shards alive; results bit-identical to the
// unsharded run) and print residency stats plus peak RSS.
// `--checkpoint-dir` externalizes progress: the sharded drive records
// each completed shard as its own file there, the streaming drive
// snapshots the engine after every epoch; `--resume` picks either back
// up, skipping completed work, with a final result bit-identical to an
// uninterrupted run; a checkpoint that cannot be written is one stderr
// line and exit status 1.  `--max-shards K` stops the sharded drive
// after K computed shards (the kill half of a kill/resume demo); see
// EXPERIMENTS.md for the recipe.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/checkpoint.h"
#include "core/discovery.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/shard.h"
#include "core/streaming.h"
#include "fault/fault_plan.h"
#include "geo/countries.h"
#include "recon/block_recon.h"
#include "sim/country_layers.h"
#include "util/date.h"
#include "util/mem.h"
#include "util/table.h"

#include "flags.h"

using namespace diurnal;

namespace {

struct Args {
  std::string command;
  int blocks = 3000;
  std::uint64_t seed = 1;
  core::DatasetSpec dataset = core::dataset("2020q1-ejnw");
  std::optional<core::DatasetSpec> classify_dataset;
  std::optional<std::string> country;
  std::optional<std::string> out_prefix;
  std::optional<net::BlockId> block_id;
  std::optional<std::string> fault_scenario;
  bool usc = false;
  bool vpn = false;
  bool discover = false;
  bool validate = false;
  bool stream = false;
  std::int64_t epoch = util::kSecondsPerDay;
  // Sharded execution (any of these selects the bounded-memory drive).
  std::size_t shards = 0;        ///< partition into N shards
  std::size_t shard_size = 0;    ///< ... or into shards of S blocks
  std::size_t max_resident = 0;  ///< resident-shard cap (default 4)
  // Checkpoint/restore (core/checkpoint.h).
  std::optional<std::string> checkpoint_dir;
  bool resume = false;
  std::size_t max_shards = 0;  ///< stop after K computed shards
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: diurnal_cli run [--blocks N] [--seed S] [--dataset D]\n"
               "                       [--classify D2] [--country CC]\n"
               "                       [--out PREFIX] [--fault SCENARIO]\n"
               "                       [--discover] [--validate]\n"
               "                       [--stream] [--epoch=DUR]\n"
               "                       [--shards N | --shard-size S]\n"
               "                       [--max-resident M]\n"
               "                       [--checkpoint-dir DIR] [--resume]\n"
               "                       [--max-shards K]\n"
               "       diurnal_cli block [--dataset D] [--id A.B.C.0/24|--usc|--vpn]\n"
               "                       [--fault SCENARIO]\n"
               "       diurnal_cli datasets | sites | faults\n"
               "       diurnal_cli --list-countries\n"
               "       diurnal_cli --explain-country=CC\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage();
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--blocks") a.blocks = tools::flag_int(flag, value(), 1);
    else if (flag == "--seed") a.seed = tools::flag_uint(flag, value());
    else if (flag == "--dataset")
      a.dataset = tools::flag_dataset(flag, value());
    else if (flag == "--classify")
      a.classify_dataset = tools::flag_dataset(flag, value());
    else if (flag == "--country")
      a.country = tools::flag_value(flag, value(), [](const std::string& c) {
        geo::country_index(c);
        return c;
      });
    else if (flag == "--out") a.out_prefix = value();
    else if (flag == "--id")
      a.block_id = tools::flag_value(flag, value(), net::BlockId::parse);
    else if (flag == "--fault")
      a.fault_scenario = tools::flag_scenario(flag, value());
    else if (flag == "--usc") a.usc = true;
    else if (flag == "--vpn") a.vpn = true;
    else if (flag == "--discover") a.discover = true;
    else if (flag == "--validate") a.validate = true;
    else if (flag == "--stream") a.stream = true;
    else if (flag == "--shards") a.shards = tools::flag_uint(flag, value());
    else if (flag == "--shard-size")
      a.shard_size = tools::flag_uint(flag, value());
    else if (flag == "--max-resident")
      a.max_resident = tools::flag_uint(flag, value());
    else if (flag == "--checkpoint-dir") a.checkpoint_dir = value();
    else if (flag == "--resume") a.resume = true;
    else if (flag == "--max-shards")
      a.max_shards = tools::flag_uint(flag, value());
    else if (flag == "--epoch")
      a.epoch = tools::flag_value(flag, value(), util::parse_duration);
    else if (flag.rfind("--epoch=", 0) == 0)
      a.epoch =
          tools::flag_value("--epoch", flag.substr(8), util::parse_duration);
    else usage();
  }
  return a;
}

void print_funnel_line(const core::FunnelCounts& f) {
  std::printf("funnel: routed %lld | responsive %lld | diurnal %lld | "
              "wide %lld | change-sensitive %lld\n",
              static_cast<long long>(f.routed),
              static_cast<long long>(f.responsive),
              static_cast<long long>(f.diurnal),
              static_cast<long long>(f.wide_swing),
              static_cast<long long>(f.change_sensitive));
}

/// The bounded-memory drive: the world is never materialized whole, so
/// report paths that need it (--out, --validate) or a streaming engine
/// (--stream) are rejected rather than silently forcing a full build.
int cmd_run_sharded(const Args& a, const sim::WorldConfig& wc,
                    const core::FleetConfig& fc) {
  if (a.out_prefix || a.validate || a.stream) {
    std::fprintf(stderr, "--out/--validate/--stream need the whole world "
                         "resident; drop --shards/--shard-size\n");
    return 2;
  }
  const sim::BlockGenerator gen(wc);
  core::ShardConfig sc;
  if (a.shard_size > 0) {
    sc.shard_size = a.shard_size;
  } else if (a.shards > 0) {
    sc.shard_size = (gen.total_blocks() + a.shards - 1) / a.shards;
  }
  if (a.max_resident > 0) sc.max_resident = a.max_resident;
  if (a.checkpoint_dir) sc.checkpoint_dir = *a.checkpoint_dir;
  sc.resume = a.resume;
  sc.max_shards = a.max_shards;

  const auto r = core::run_sharded_fleet(gen, fc, sc);
  if (!sc.checkpoint_dir.empty()) {
    std::printf("checkpoint: %zu shard(s) resumed from %s, %zu computed",
                r.stats.resumed_shards, sc.checkpoint_dir.c_str(),
                r.stats.completed_shards);
    const std::size_t done = r.stats.resumed_shards + r.stats.completed_shards;
    if (done < r.stats.shards) {
      std::printf(" (%zu of %zu remain; rerun with --resume)",
                  r.stats.shards - done, r.stats.shards);
    }
    std::printf("\n");
  }
  print_funnel_line(r.fleet.funnel);
  if (a.fault_scenario) {
    const auto& d = r.fleet.degradation;
    std::printf("degraded fleet (--fault %s): %lld/%lld blocks degraded, "
                "%lld low-confidence\n",
                a.fault_scenario->c_str(),
                static_cast<long long>(d.degraded_blocks),
                static_cast<long long>(d.probed_blocks),
                static_cast<long long>(d.low_confidence_blocks));
  }
  std::printf("shards: %zu of %zu blocks, %zu workers x %zu threads, "
              "peak resident %zu/%zu (%.1f MB accounted)\n",
              r.stats.shards, r.stats.shard_size, r.stats.workers,
              r.stats.intra_threads, r.stats.peak_resident, sc.max_resident,
              static_cast<double>(r.stats.peak_resident_bytes) / 1048576.0);
  const auto mem = util::read_memory_usage();
  if (mem.valid) {
    std::printf("memory: RSS %zu KB, peak %zu KB\n", mem.rss_kb,
                mem.peak_rss_kb);
  }
  if (a.discover) {
    std::printf("\ndiscovered regional events:\n");
    for (const auto& ev : core::discover_events(r.aggregate)) {
      std::printf("  %s\n", ev.to_string().c_str());
    }
  }
  return 0;
}

int cmd_run(const Args& a) {
  sim::WorldConfig wc;
  wc.num_blocks = a.blocks;
  wc.seed = a.seed;
  wc.only_country = a.country;

  core::FleetConfig fc;
  fc.dataset = a.dataset;
  fc.classify_dataset = a.classify_dataset;
  if (a.fault_scenario) {
    fc.faults = fault::scenario(*a.fault_scenario, fc.dataset.window());
  }
  if (a.shards > 0 || a.shard_size > 0 || a.max_resident > 0 ||
      a.max_shards > 0 || (a.checkpoint_dir && !a.stream)) {
    return cmd_run_sharded(a, wc, fc);
  }
  const sim::World world(wc);

  core::FleetResult fleet;
  if (a.stream) {
    core::StreamingFleet engine(world, fc);
    // Streaming checkpoints: the engine image after every epoch, in the
    // run's one file.
    std::optional<core::RunCheckpoint> ckpt;
    if (a.checkpoint_dir) ckpt.emplace(*a.checkpoint_dir, "stream.ckpt", wc, fc);
    if (a.resume && ckpt) {
      if (const auto why = ckpt->resume(engine)) {
        std::fprintf(stderr, "cannot resume %s (%s); starting fresh\n",
                     ckpt->path().c_str(), why->c_str());
      } else {
        std::printf("resumed stream checkpoint at %s\n",
                    util::to_string(util::date_of(engine.clock())).c_str());
      }
    }
    for (util::SimTime t = engine.clock() + a.epoch;; t += a.epoch) {
      const auto bounded = std::min(t, engine.window_end());
      const auto rep = engine.advance_to(bounded);
      std::printf("epoch %3zu  %s  %9zu obs%s\n", rep.epoch_index,
                  util::to_string(util::date_of(rep.epoch_end)).c_str(),
                  rep.observations,
                  rep.classification_complete ? "  [classification final]"
                                              : "");
      for (const auto& p : rep.provisional) {
        std::printf("  ~ provisional %s %s alarm %s (z %+.1f)\n",
                    p.direction == analysis::ChangeDirection::kDown ? "DOWN"
                                                                    : "UP",
                    p.id.to_string().c_str(),
                    util::to_string(util::date_of(p.alarm)).c_str(),
                    p.amplitude);
      }
      if (bounded == engine.window_end()) break;
      if (ckpt) ckpt->save(engine);
    }
    fleet = engine.finalize();
    if (ckpt) ckpt->discard();
    const auto span = engine.window_end() - engine.window_start();
    std::printf("finalized: authoritative result over %lld epochs\n\n",
                static_cast<long long>((span + a.epoch - 1) / a.epoch));
  } else {
    fleet = core::run_fleet(world, fc);
  }
  print_funnel_line(fleet.funnel);
  if (a.fault_scenario) {
    const auto& d = fleet.degradation;
    std::printf("degraded fleet (--fault %s): %lld/%lld blocks degraded, "
                "%lld low-confidence, %lld missing observers, "
                "mean evidence %.3f\n",
                a.fault_scenario->c_str(),
                static_cast<long long>(d.degraded_blocks),
                static_cast<long long>(d.probed_blocks),
                static_cast<long long>(d.low_confidence_blocks),
                static_cast<long long>(d.blocks_missing_observers),
                d.mean_evidence_fraction);
  }

  const auto agg = core::aggregate_changes(world, fleet, fc);
  if (a.discover) {
    std::printf("\ndiscovered regional events:\n");
    for (const auto& ev : core::discover_events(agg)) {
      std::printf("  %s\n", ev.to_string().c_str());
    }
  }
  if (a.validate) {
    core::ValidationConfig vc;
    vc.window = fc.dataset.window();
    const auto v = core::validate_sample(world, fleet, vc);
    std::printf("\nvalidation: %d sampled, TP %d FP %d FN %d -> "
                "precision %s recall %s\n",
                v.total, v.true_positive, v.false_positive, v.false_negative,
                util::fmt_pct(v.precision(), 0).c_str(),
                util::fmt_pct(v.recall(), 0).c_str());
  }
  if (a.out_prefix) {
    const auto paths = core::write_report(*a.out_prefix, world, fleet, agg);
    std::printf("\nwrote %s %s %s %s\n", paths.funnel.c_str(),
                paths.blocks.c_str(), paths.changes.c_str(),
                paths.cells.c_str());
  }
  return 0;
}

int cmd_block(const Args& a) {
  sim::WorldConfig wc;
  wc.num_blocks = a.block_id ? a.blocks : 0;
  wc.seed = a.seed;
  const sim::World world(wc);

  net::BlockId id = world.usc_office_block();
  if (a.vpn) id = world.usc_vpn_block();
  if (a.block_id) id = *a.block_id;
  const auto* block = world.find(id);
  if (block == nullptr) {
    std::fprintf(stderr, "block %s not in this world\n", id.to_string().c_str());
    return 1;
  }

  core::FleetConfig fc;
  fc.dataset = a.dataset;
  if (a.fault_scenario) {
    fc.faults = fault::scenario(*a.fault_scenario, fc.dataset.window());
  }
  const auto r =
      recon::observe_and_reconstruct(*block, fc.observation(fc.dataset));
  const auto out =
      core::analyze_block(r, fc.classifier, fc.detector, fc.run_detection);
  const auto& cls = out.cls;
  std::printf("%s: |E(b)| %d, max active %.0f, reply rate %.3f\n",
              id.to_string().c_str(), r.eb_count, r.max_active,
              r.mean_reply_rate);
  if (a.fault_scenario) {
    std::printf("degraded (--fault %s): evidence %.3f, max gap %.1f h%s\n",
                a.fault_scenario->c_str(), r.evidence_fraction,
                r.max_gap_seconds / 3600.0,
                cls.low_confidence ? "  [LOW CONFIDENCE]" : "");
  }
  std::printf("diurnal %s (ratio %.2f), wide swing %s (max %.0f) -> "
              "change-sensitive %s\n",
              cls.diurnal ? "yes" : "no", cls.diurnal_detail.power_ratio,
              cls.wide_swing ? "yes" : "no", cls.swing_detail.max_daily_swing,
              cls.change_sensitive ? "YES" : "no");
  if (!cls.change_sensitive) {
    std::printf("not change-sensitive: the fleet runs no change detection "
                "on this block\n");
  }
  for (const auto& c : out.changes) {
    std::printf("  %s alarm %s amplitude %+.1f addr%s%s%s%s\n",
                c.direction == analysis::ChangeDirection::kDown ? "DOWN" : "UP",
                util::to_string(util::date_of(c.alarm)).c_str(),
                c.amplitude_addresses,
                c.filtered_as_outage ? " [outage]" : "",
                c.filtered_small ? " [small]" : "",
                c.filtered_phase_only ? " [phase-only]" : "",
                c.low_evidence ? " [low evidence]" : "");
  }
  return 0;
}

}  // namespace

/// Resolves the default world's country-layer stack (registry values,
/// no overrides, default horizon) — the view `run` uses unless a
/// scenario stacks CountryLayerOverride entries on top.
sim::CountryLayerTable default_layer_table() {
  const sim::WorldConfig wc;
  return sim::CountryLayerTable(wc.country_layers, wc.outage_rate_per_90d,
                                wc.renumber_probability, wc.horizon_start,
                                wc.horizon_end);
}

int cmd_list_countries() {
  const auto table = default_layer_table();
  std::printf("%-4s %-22s %7s %8s %12s %8s %5s %4s %8s\n", "code", "name",
              "weight", "diurnal", "cgnat", "outage", "renum", "utc",
              "dst");
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& rc = table.resolved(i);
    const auto& p = *rc.profile;
    std::printf("%-4s %-22s %7.2f %8.3f %5.3f->%5.3f %8.3f %5.3f %+4d %8s\n",
                p.code.c_str(), p.name.c_str(), rc.pick_weight,
                rc.diurnal_visible, rc.cgnat_start, rc.cgnat_end,
                rc.outage_rate_per_90d, rc.renumber_probability,
                rc.utc_offset_hours,
                std::string(geo::to_string(rc.dst)).c_str());
  }
  return 0;
}

int cmd_explain_country(const std::string& code) {
  const auto table = default_layer_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& rc = table.resolved(i);
    const auto& p = *rc.profile;
    if (p.code != code) continue;
    std::printf("%s (%s) — resolved layer stack over the default horizon\n",
                p.name.c_str(), p.code.c_str());
    std::printf("  demographics:  pick weight %.2f, %zu cities\n",
                rc.pick_weight, p.demographics.cities.size());
    std::printf("  adoption:      diurnal-visible %.3f, CGNAT %.3f -> %.3f "
                "over the horizon\n",
                rc.diurnal_visible, rc.cgnat_start, rc.cgnat_end);
    std::printf("  network ops:   outage rate %.3f per 90d, renumber "
                "probability %.3f\n",
                rc.outage_rate_per_90d, rc.renumber_probability);
    std::printf("  time rules:    UTC%+d, DST %s, %zu annual holiday(s)\n",
                rc.utc_offset_hours,
                std::string(geo::to_string(rc.dst)).c_str(),
                rc.holidays.size());
    for (const auto& h : rc.holidays) {
      std::printf("                 %s: %02d-%02d, %d day(s), adoption %.2f, "
                  "residual %.2f\n",
                  h.name.c_str(), h.month, h.day, h.duration_days,
                  h.adoption, h.residual_attendance);
    }
    if (rc.tz_shifts.empty()) {
      std::printf("                 no tz transitions in the horizon\n");
    }
    for (const auto& s : rc.tz_shifts) {
      std::printf("                 %s -> UTC%+d\n",
                  util::to_string_time(s.at).c_str(),
                  static_cast<int>(s.offset_hours));
    }
    std::printf("  drift:         adoption %+.3f/yr, CGNAT %+.3f/yr\n",
                rc.adoption_trend_per_year, rc.cgnat_trend_per_year);
    if (p.wfh_2020) {
      std::printf("  wfh 2020:      %s\n",
                  util::to_string(*p.wfh_2020).c_str());
    }
    return 0;
  }
  std::fprintf(stderr, "unknown country code '%s' (try --list-countries)\n",
               code.c_str());
  return 2;
}

int main(int argc, char** argv) {
  tools::check_simd_env();
  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "--list-countries" || cmd == "countries") {
      return cmd_list_countries();
    }
    if (cmd.rfind("--explain-country=", 0) == 0) {
      return cmd_explain_country(cmd.substr(std::strlen("--explain-country=")));
    }
    if (cmd == "--explain-country" && argc >= 3) {
      return cmd_explain_country(argv[2]);
    }
  }
  const Args a = parse(argc, argv);
  if (a.command == "run") {
    try {
      return cmd_run(a);
    } catch (const util::StateError& e) {
      std::fprintf(stderr, "checkpoint failed: %s\n", e.what());
      return 1;
    }
  }
  if (a.command == "block") return cmd_block(a);
  if (a.command == "datasets") {
    for (const auto& d : core::table6_datasets()) {
      std::printf("%-12s %-50s %s %2d weeks\n", d.abbr.c_str(),
                  d.full_name.c_str(), util::to_string(d.start).c_str(),
                  d.duration_weeks);
    }
    return 0;
  }
  if (a.command == "faults") {
    for (const auto& name : fault::scenario_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (a.command == "sites") {
    for (const auto& s : probe::trinocular_sites()) {
      std::printf("%c  %-28s phase %3llds%s\n", s.code, s.location.c_str(),
                  static_cast<long long>(s.phase),
                  s.fault_end > s.fault_start ? "  (faulty in 2020h1)" : "");
    }
    return 0;
  }
  usage();
}
