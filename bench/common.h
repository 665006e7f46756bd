// Shared scaffolding for the per-table/per-figure reproduction benches.
//
// Every bench prints (a) which paper artifact it regenerates, (b) the
// scale factor of its synthetic world relative to the paper's 11.1M
// routed /24s, and (c) the same rows/series the paper reports, so runs
// can be diffed against EXPERIMENTS.md.
//
// Scale knobs (environment):
//   DIURNAL_BENCH_BLOCKS  override the world size of fleet benches
//   DIURNAL_BENCH_SEED    override the world seed
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/pipeline.h"
#include "sim/world.h"
#include "util/table.h"

namespace diurnal::bench {

/// Reads a non-negative integer environment override; a malformed value
/// (`12x`, `-1`, `abc`) prints one stderr line and exits with status 2.
int env_int(const char* name, int fallback);

/// Prints the bench banner: artifact id, title, and scale note.  Every
/// bench calls it first, so it also checks DIURNAL_SIMD: an unknown
/// level prints one stderr line and exits with status 2.
void header(const std::string& artifact, const std::string& title,
            const std::string& note = {});

/// World config scaled by DIURNAL_BENCH_BLOCKS/DIURNAL_BENCH_SEED, with
/// a printed scale annotation.
sim::WorldConfig scaled_world(int default_blocks, std::uint64_t seed = 1,
                              bool announce = true);

/// Classifies each reconstruction as the fleet does, in batches of
/// core::classify_blocks_batch(): out[i] receives recons[i]'s verdict.
void classify_batched(std::span<const recon::ReconResult> recons,
                      const core::ClassifierOptions& opt,
                      std::span<core::BlockClassification> out);

/// Appends a Table 2-style funnel column description.
void print_funnel(const std::string& name, const core::FunnelCounts& f);

/// Renders a small inline bar for text "plots".
std::string bar(double fraction, int width = 40);

// ---------------------------------------------------------------------------
// Machine-readable bench output (the BENCH_*.json perf trajectory).
// ---------------------------------------------------------------------------

/// Minimal insertion-ordered JSON object builder.  Values are emitted in
/// the order added; nested objects via add_object.  Just enough for the
/// flat metric dictionaries the perf-trajectory files hold.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v);
  JsonObject& add(const std::string& key, std::int64_t v);
  JsonObject& add(const std::string& key, int v) {
    return add(key, static_cast<std::int64_t>(v));
  }
  JsonObject& add(const std::string& key, const std::string& v);
  JsonObject& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonObject& add(const std::string& key, bool v);
  JsonObject& add_object(const std::string& key, const JsonObject& v);

  /// Serializes as a pretty-printed JSON object.
  std::string str(int indent = 0) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes a bench's JSON metrics file and announces the path on stdout.
/// The destination defaults to `default_path` (relative to the working
/// directory) and can be overridden with the DIURNAL_BENCH_JSON
/// environment variable.
void write_bench_json(const std::string& default_path, const JsonObject& obj);

}  // namespace diurnal::bench
