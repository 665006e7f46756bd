#include "common.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "flags.h"

namespace diurnal::bench {

int env_int(const char* name, int fallback, int lo, int hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return tools::flag_int(name, v, lo, hi);
}

void header(const std::string& artifact, const std::string& title,
            const std::string& note) {
  tools::check_simd_env();
  std::printf("================================================================\n");
  std::printf("%s: %s\n", artifact.c_str(), title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("================================================================\n");
}

sim::WorldConfig scaled_world(int default_blocks, std::uint64_t seed,
                              bool announce) {
  sim::WorldConfig wc;
  wc.num_blocks = env_int("DIURNAL_BENCH_BLOCKS", default_blocks);
  wc.seed = static_cast<std::uint64_t>(
      env_int("DIURNAL_BENCH_SEED", static_cast<int>(seed)));
  if (announce) {
    std::printf(
        "world: %d routed /24 blocks (paper: 11.1M routed; scale ~1:%d), "
        "seed %llu\n\n",
        wc.num_blocks, wc.num_blocks > 0 ? 11'100'000 / wc.num_blocks : 0,
        static_cast<unsigned long long>(wc.seed));
  }
  return wc;
}

void classify_batched(std::span<const recon::ReconResult> recons,
                      const core::ClassifierOptions& opt,
                      std::span<core::BlockClassification> out) {
  constexpr std::size_t kLanes = analysis::BatchAnalyzer::kMaxLanes;
  analysis::BatchAnalyzer baz;
  std::array<core::BatchClassifyJob, kLanes> jobs;
  for (std::size_t i = 0; i < recons.size(); i += kLanes) {
    const std::size_t n = std::min(kLanes, recons.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      const auto& r = recons[i + k];
      jobs[k] = {r.counts.span(), r.counts.start(), r.counts.step(),
                 r.responsive, r.evidence_fraction, &out[i + k]};
    }
    core::classify_blocks_batch(std::span(jobs.data(), n), opt, baz);
  }
}

void print_funnel(const std::string& name, const core::FunnelCounts& f) {
  using util::fmt_count;
  std::printf("%-18s routed %s | responsive %s | diurnal %s | wide %s | "
              "change-sensitive %s\n",
              name.c_str(), fmt_count(f.routed).c_str(),
              fmt_count(f.responsive).c_str(), fmt_count(f.diurnal).c_str(),
              fmt_count(f.wide_swing).c_str(),
              fmt_count(f.change_sensitive).c_str());
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::add(const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += json_escape(v);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::add_object(const std::string& key, const JsonObject& v) {
  fields_.emplace_back(key, v.str(1));
  return *this;
}

std::string JsonObject::str(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent + 1) * 2, ' ');
  const std::string close_pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += pad + "\"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
    if (i + 1 < fields_.size()) out += ",";
    out += "\n";
  }
  out += close_pad + "}";
  return out;
}

void write_bench_json(const std::string& default_path, const JsonObject& obj) {
  const char* override_path = std::getenv("DIURNAL_BENCH_JSON");
  const std::string path =
      (override_path != nullptr && *override_path != '\0') ? override_path
                                                           : default_path;
  std::ofstream out(path);
  out << obj.str() << "\n";
  std::printf("wrote %s\n", path.c_str());
}

std::string bar(double fraction, int width) {
  if (fraction < 0) fraction = 0;
  if (fraction > 1) fraction = 1;
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string out(static_cast<std::size_t>(filled), '#');
  out.append(static_cast<std::size_t>(width - filled), '.');
  return out;
}

}  // namespace diurnal::bench
