// diurnal_validate: end-to-end accuracy gate against planted truth.
//
//   diurnal_validate [--scenario NAME] [--baseline PATH]
//                    [--update-baseline] [--json] [--list]
//                    [--threads N] [--batch-only]
//
// Runs every catalog scenario (or one, with --scenario) through the
// full pipeline — batch AND streaming drives — scores detections
// against the planted event calendar with the paper's +-4-day rule,
// and compares the scorecards to the checked-in golden baseline
// (VALIDATE_baseline.json; override with --baseline or the
// DIURNAL_VALIDATE_BASELINE environment variable).
//
// Exit status: 0 all gates pass; 1 any baseline deviation, batch vs
// streaming disagreement, or scenario-expectation violation; 2 usage.
//
// --update-baseline rewrites the baseline from the current run (gates
// other than the baseline comparison still apply: a run that violates
// its own invariants must not be recorded as golden).  --json prints
// the current results document to stdout for machine consumers: stdout
// then carries the document alone, and every other line (--explain
// rows, the status line) goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "util/date.h"
#include "util/table.h"
#include "validate/baseline.h"
#include "validate/harness.h"
#include "validate/scenario.h"

#include "flags.h"

using namespace diurnal;

namespace {

struct Args {
  std::optional<std::string> scenario;
  std::string baseline_path = "VALIDATE_baseline.json";
  bool update_baseline = false;
  bool json = false;
  bool list = false;
  bool batch_only = false;
  bool explain = false;
  int threads = 0;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: diurnal_validate [--scenario NAME] [--baseline PATH]\n"
      "                        [--update-baseline] [--json] [--list]\n"
      "                        [--threads N] [--batch-only] [--explain]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  if (const char* env = std::getenv("DIURNAL_VALIDATE_BASELINE")) {
    a.baseline_path = env;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--scenario") a.scenario = value();
    else if (flag == "--baseline") a.baseline_path = value();
    else if (flag == "--update-baseline") a.update_baseline = true;
    else if (flag == "--json") a.json = true;
    else if (flag == "--list") a.list = true;
    else if (flag == "--batch-only") a.batch_only = true;
    else if (flag == "--explain") a.explain = true;
    else if (flag == "--threads") a.threads = tools::flag_int(flag, value(), 0);
    else usage();
  }
  return a;
}

std::string fmt_latency(std::optional<double> days) {
  if (!days) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fd", *days);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  tools::check_simd_env();
  const Args a = parse(argc, argv);

  if (a.list) {
    for (const auto& s : validate::catalog()) {
      std::printf("%-16s %s%s\n", s.name.c_str(), s.title.c_str(),
                  s.fault_scenario == "none"
                      ? ""
                      : ("  [fault: " + s.fault_scenario + "]").c_str());
    }
    return 0;
  }
  if (a.scenario && validate::find_scenario(*a.scenario) == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see --list)\n",
                 a.scenario->c_str());
    return 2;
  }
  if (a.update_baseline && a.scenario) {
    std::fprintf(stderr,
                 "--update-baseline requires a full catalog run "
                 "(drop --scenario)\n");
    return 2;
  }

  // The baseline is read before anything runs, so a missing or
  // malformed one fails at once.
  validate::Baseline baseline;
  if (!a.update_baseline) {
    std::ifstream in(a.baseline_path);
    if (!in) {
      std::fprintf(stderr,
                   "no baseline at %s (run with --update-baseline to create "
                   "one)\n",
                   a.baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    try {
      baseline = validate::parse_baseline(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", a.baseline_path.c_str(), e.what());
      return 1;
    }
  }

  validate::Baseline current;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, validate::ScenarioRun>> runs;

  // Lines that are not the results: stdout, unless --json owns it.
  FILE* const notes = a.json ? stderr : stdout;
  util::TextTable table({"scenario", "blocks", "truth", "TP", "FN", "FP",
                         "discards", "warmup", "precision", "recall", "F1",
                         "latency", "digest"});
  for (const auto& s : validate::catalog()) {
    if (a.scenario && s.name != *a.scenario) continue;

    const sim::World world(s.world);
    std::vector<validate::ExplainEntry> details;
    auto run = validate::run_scenario(s, world, validate::Drive::kBatch,
                                      a.threads,
                                      a.explain ? &details : nullptr);
    if (a.explain) {
      for (const auto& e : details) {
        std::string note;
        if (e.what == validate::ExplainEntry::What::kMissedTruth) {
          note = " [" + std::string(validate::to_string(e.cls)) + "]";
        } else if (e.near_artifact) {
          note = " [near planted outage]";
        }
        std::fprintf(
            notes, "%-16s %-14s %-14s %s %-4s %7.1f addr  %s%s\n",
            s.name.c_str(), e.id.to_string().c_str(),
            sim::to_string(e.category).data(),
            util::to_string(util::date_of(e.at)).c_str(),
            e.direction == analysis::ChangeDirection::kUp ? "up" : "down",
            e.amplitude_addresses, validate::to_string(e.what).data(),
            note.c_str());
      }
    }
    if (!a.batch_only) {
      const auto streamed = validate::run_scenario(
          s, world, validate::Drive::kStreaming, a.threads);
      if (!(streamed.score == run.score) || streamed.digest != run.digest) {
        violations.push_back(
            s.name + ": batch and streaming drives disagree (digest " +
            validate::make_record(run.score, run.digest).digest + " vs " +
            validate::make_record(streamed.score, streamed.digest).digest +
            ")");
      }
    }

    for (auto& v : validate::check_expectations(s, run)) {
      violations.push_back(std::move(v));
    }
    if (!s.clean_counterpart.empty()) {
      const validate::ScenarioRun* clean = nullptr;
      for (const auto& [name, r] : runs) {
        if (name == s.clean_counterpart) clean = &r;
      }
      if (clean == nullptr) {
        violations.push_back(s.name + ": clean counterpart '" +
                             s.clean_counterpart + "' did not run first");
      } else {
        for (auto& v : validate::check_fault_invariants(s, run, *clean)) {
          violations.push_back(std::move(v));
        }
      }
    }

    const auto rec = validate::make_record(run.score, run.digest);
    const auto& c = run.score;
    table.add_row({s.name, std::to_string(c.blocks_scored),
                   std::to_string(c.truth_total()),
                   std::to_string(c.true_positive()),
                   std::to_string(c.false_negative()),
                   std::to_string(c.false_positive),
                   std::to_string(c.outage_discards),
                   std::to_string(c.warmup_excluded),
                   util::fmt_pct(c.precision()), util::fmt_pct(c.recall()),
                   util::fmt_pct(c.f1()),
                   fmt_latency(c.mean_abs_latency_days()), rec.digest});
    current.scenarios.emplace_back(s.name, rec);
    runs.emplace_back(s.name, std::move(run));
  }

  if (a.json) {
    std::fputs(validate::to_json(current).c_str(), stdout);
  } else {
    table.print();
  }

  int failures = 0;
  for (const auto& v : violations) {
    std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
    ++failures;
  }

  if (a.update_baseline) {
    if (failures > 0) {
      std::fprintf(stderr,
                   "refusing to record a baseline from a run with %d "
                   "violation(s)\n",
                   failures);
      return 1;
    }
    std::ofstream out(a.baseline_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", a.baseline_path.c_str());
      return 1;
    }
    out << validate::to_json(current);
    std::fprintf(notes, "baseline written to %s\n", a.baseline_path.c_str());
    return 0;
  }

  const auto mismatches = validate::compare_to_baseline(
      baseline, current, 1e-9, a.scenario ? *a.scenario : std::string{});
  for (const auto& m : mismatches) {
    std::fprintf(stderr, "BASELINE DEVIATION: %s.%s: expected %s, got %s\n",
                 m.scenario.c_str(), m.field.c_str(), m.expected.c_str(),
                 m.actual.c_str());
    ++failures;
  }

  if (failures == 0) {
    std::fprintf(notes, "all %zu scenario(s) match %s\n",
                 current.scenarios.size(), a.baseline_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "%d failure(s)\n", failures);
  return 1;
}
