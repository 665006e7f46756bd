#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "analysis/simd.h"
#include "util/mem.h"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double supported_tail(std::size_t n) {
  double best = 0.0;
  for (const double p : {0.90, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  return static_cast<double>(diurnal::util::read_memory_usage().peak_rss_kb) /
         1024.0;
}

void print_provenance(const Options& opt, unsigned threads_working) {
  namespace simd = diurnal::analysis::simd;
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %s, \"nproc\": %u, \"hardware_concurrency\": %u, "
      "\"threads_working\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"flags\": \"%s\", \"simd_level\": \"%s\", "
      "\"peak_reset_supported\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? "true" : "false", nproc(),
      std::thread::hardware_concurrency(), threads_working, PB_COMPILER,
      PB_BUILD_TYPE, PB_CXX_FLAGS, simd::level_name(simd::active_level()),
      diurnal::util::peak_reset_supported() ? "true" : "false");
}

std::int32_t Tracer::open(const char* name, std::int64_t id) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.id = id;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  current_ = s.parent;
}

double Tracer::total_s(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  out << "thread\tindex\tparent\tname\tid\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
          << s.id << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

}  // namespace perfbench
