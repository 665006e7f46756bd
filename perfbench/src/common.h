// Shared pieces of the benchmark driver: options, wall clocks, sample
// statistics, the metric report, run provenance and the span tracer.
//
// The driver measures the library only through its public headers.  A
// workload returns a Report holding its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run); main.cc prints the report
// as the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test knobs: shrink the workload, or corrupt the reference so
  /// the run must fail.
  bool tiny = false;
  bool corrupt_reference = false;
  /// Directory (inside the checkout) for checkpoints and span files.
  std::string work_dir = ".bench_build/work";
};

/// One named number with its unit, printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.  `attempted`/`failed` count the
/// operations the run checked; any reference mismatch sets correct to
/// false and counts as a failure.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra figures printed on a "detail" line before the result line
  /// (workload-specific numbers, sample counts, thread topology).
  std::vector<Metric> detail;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Records one checked operation; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
};

/// Times each run repeats its set-up; setup_s is the median.
constexpr int kSetupRepeats = 101;

/// Median and quantiles by linear interpolation (the inclusive method
/// of Python's statistics.quantiles); `v` is sorted in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// The highest of {90, 99, 99.9, 99.99} percent that leaves at least
/// ten samples beyond it, or 0 when even p90 does not.
double supported_tail(std::size_t n);

/// Logical CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// Peak resident set since the last util::reset_peak_rss(), in MB.
double peak_rss_mb();

/// Writes the provenance line: host CPUs, compiler, build, SIMD level.
void print_provenance(const Options& opt, unsigned threads_working);

/// Span recorder.  Each recording thread owns one Tracer (no locks);
/// spans carry their parent's index in the same tracer and the block or
/// epoch they belong to.  A disabled tracer records nothing and its
/// Scope is two clock reads cheaper.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int64_t id = -1;  ///< block index or epoch index
  };

  explicit Tracer(bool enabled = true, Clock::time_point origin = Clock::now())
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const noexcept { return enabled_; }
  /// Pre-sizes the span buffer so recording never reallocates mid-run.
  void reserve(std::size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }
  std::int32_t open(const char* name, std::int64_t id);
  void close(std::int32_t span);
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of the durations of every span named `name`, in seconds.
  double total_s(const char* name) const;
  /// Durations of every span named `name`, in milliseconds.
  std::vector<double> durations_ms(const char* name) const;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t id = -1)
        : t_(t), span_(t.enabled() ? t.open(name, id) : -1) {}
    ~Scope() {
      if (span_ >= 0) t_.close(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t span_;
  };

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;  ///< innermost open span (the next parent)
};

/// Writes every tracer's spans as tab-separated rows
/// (thread, index, parent, name, id, start_ns, end_ns) to `path`.
void write_spans(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
