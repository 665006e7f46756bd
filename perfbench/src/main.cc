// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--tiny] [--corrupt-reference] [--work-dir <dir>]
//
// Standard output: a provenance line, the drive digest, a detail line
// of workload-specific figures, and last the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status 0 only when every check passed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"month_sharded", "halfyear_union_ckpt",
                                      "live_hourly"};

/// Every per-layer metric with its unit, in print order.
constexpr const char* kLayerMetrics[][2] = {
    {"sim.materialize_s", "s"},
    {"recon.stream_s", "s"},
    {"recon.observations", "count"},
    {"recon.obs_per_s", "1/s"},
    {"fault.degraded_blocks", "count"},
    {"analysis.classify_s", "s"},
    {"analysis.classify_blocks", "count"},
    {"analysis.detect_s", "s"},
    {"analysis.detect_blocks", "count"},
    {"analysis.detect_samples", "count"},
    {"core.aggregate_s", "s"},
    {"core.shards", "count"},
    {"core.workers", "count"},
    {"core.peak_resident_mb", "MB"},
    {"core.ckpt_write_s", "s"},
    {"core.ckpt_mb", "MB"},
    {"core.ckpt_load_s", "s"},
    {"core.recomputed_shards", "count"},
    {"core.advance_ms_p50", "ms"},
    {"core.advance_ms_p90", "ms"},
    {"core.provisional_alarms", "count"},
    {"core.extract_rows_ms_p50", "ms"},
    {"core.trend_copy_ms_p50", "ms"},
    {"util.state_save_ms_p50", "ms"},
    {"util.image_mb_peak", "MB"},
    {"util.state_restore_ms", "ms"},
    {"core.snapshot_mb_peak", "MB"},
    {"core.feed_waits", "count"},
    {"core.feed_peak_depth", "count"},
    {"core.query_pin_us_p50", "us"},
    {"core.query_block_us_p50", "us"},
    {"core.query_trend_us_p50", "us"},
    {"core.query_alarms_us_p50", "us"},
    {"core.query_cell_us_p50", "us"},
    {"core.query_scorecard_us_p50", "us"},
    {"core.query_p99_us", "us"},
    {"trace.overhead_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <month_sharded|"
               "halfyear_union_ckpt|live_hourly> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--corrupt-reference] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage("unknown or missing --workload");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Shortest decimal that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";  // the run is failed by its check
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

}  // namespace

void add_layer_metrics(Report& rep, const std::map<std::string, double>& measured) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = measured.find(name);
    rep.add(name, it == measured.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report rep;
  try {
    std::filesystem::create_directories(opt.work_dir);
    print_provenance(opt, opt.workload == "live_hourly"
                              ? live_engine_threads() + 2
                              : batch_threads());
    rep = opt.workload == "live_hourly" ? run_live(opt) : run_batch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : rep.metrics) {
    rep.check(std::isfinite(m.value), "metric " + m.name + " is a finite number");
  }
  const double failed_share =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);
  rep.note("failed_share", failed_share, "ratio");
  std::printf("{\"detail\": %s}\n", metrics_json(rep.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              metrics_json(rep.metrics).c_str());
  std::fflush(stdout);
  return rep.correct && rep.attempted > 0 ? 0 : 1;
}
