// Change detection in block usage (paper sections 2.5, 2.6):
// STL trend extraction, z-score normalization, two-sided CUSUM
// (threshold 1, drift 0.001), and filtering of closely paired down/up
// changes (outages and ISP renumbering).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "analysis/batch_analyzer.h"
#include "analysis/block_analyzer.h"
#include "analysis/cusum.h"
#include "analysis/stl.h"
#include "util/timeseries.h"

namespace diurnal::core {

/// Which seasonality model extracts the trend (section 2.5 compared
/// both and adopted STL for robustness; the naive model remains as the
/// ablation baseline).
enum class TrendModel { kStl, kNaive };

struct DetectorOptions {
  /// Seasonal period in seconds (default one week: the STL seasonal
  /// component then models daily and weekly structure, as in Figure 1b).
  std::int64_t period_seconds = 7 * util::kSecondsPerDay;
  TrendModel trend_model = TrendModel::kStl;
  analysis::StlOptions stl{};              ///< period is derived per series
  analysis::CusumOptions cusum{1.0, 0.001};
  /// A down change whose alarm is followed by an opposite-direction
  /// alarm within this window (with comparable amplitude) is an
  /// outage/renumbering pair (section 2.6: outages are minutes to a few
  /// hours, so their recovery alarms land within days, while week-long
  /// holidays recover much later and survive the filter).
  std::int64_t outage_pair_window = 3 * util::kSecondsPerDay;
  double outage_amplitude_ratio = 0.5;
  /// Raw-counts outage cross-check (section 2.6: "we can filter out
  /// such events by comparing them with outage detections"): a bounded
  /// dip of the raw counts below `outage_level_fraction` of the block's
  /// typical level, lasting at most `max_outage_duration`, is an outage;
  /// changes overlapping it are discarded.  Longer low periods (week-
  /// long holidays, WFH) are not outages.
  std::int64_t max_outage_duration = 48 * util::kSecondsPerHour;
  double outage_level_fraction = 0.25;
  /// Minimum |trend change| in addresses for a counted change: the
  /// z-score normalization gives every block unit variance, so without a
  /// physical floor the CUSUM chatters on blocks whose trend wiggles by
  /// a device or two.
  double min_change_addresses = 1.5;
  /// Raw-volume corroboration (the timezone/DST cross-check): a genuine
  /// activity change moves the block's mean activity volume by an
  /// amount comparable to its trend step, while a clock shift (a DST
  /// transition moving the whole schedule by an hour) changes phase but
  /// not volume — yet still perturbs the globally fitted STL trend
  /// enough for the CUSUM to alarm.  When enabled, a change whose
  /// one-period-windowed raw means before and after differ by less than
  /// `phase_corroboration_ratio` of the claimed trend amplitude is
  /// marked as a phase artifact.  Off by default: the golden-digest
  /// contract freezes the default pipeline's decisions.
  bool phase_shift_filter = false;
  double phase_corroboration_ratio = 0.5;
};

/// One detected change, annotated with times and the outage filter.
struct DetectedChange {
  util::SimTime start = 0;
  util::SimTime alarm = 0;
  util::SimTime end = 0;
  analysis::ChangeDirection direction = analysis::ChangeDirection::kDown;
  double amplitude = 0.0;            ///< in z-score units
  double amplitude_addresses = 0.0;  ///< raw trend change in addresses
  bool filtered_as_outage = false;   ///< part of a paired down/up excursion
  bool filtered_small = false;       ///< below the address-count floor
  /// Phase artifact: the raw volume around the change does not
  /// corroborate the trend step (see DetectorOptions::phase_shift_filter;
  /// never set when that filter is off).
  bool filtered_phase_only = false;
  /// Degraded-mode annotation (set by the fleet pipeline, never by a
  /// healthy run): the change's evidence window overlaps a coverage gap
  /// or the whole reconstruction fell below the confidence floor, so the
  /// "change" may be observers failing rather than humans moving.  Not
  /// part of counted(): consumers that need trustworthy onsets (e.g.
  /// WFH validation) must check it explicitly.
  bool low_evidence = false;

  /// True when the change counts as a human-activity change.
  bool counted() const noexcept {
    return !filtered_as_outage && !filtered_small && !filtered_phase_only;
  }
};

struct DetectionResult {
  util::TimeSeries trend;             ///< STL trend
  util::TimeSeries seasonal;          ///< STL seasonal component
  util::TimeSeries residual;          ///< STL residual
  util::TimeSeries normalized_trend;  ///< z-scored trend fed to CUSUM
  std::vector<double> cusum_pos;      ///< cumulative positive sums
  std::vector<double> cusum_neg;      ///< cumulative negative sums
  std::vector<DetectedChange> changes;

  /// Changes attributed to human activity (outage pairs removed).
  std::vector<DetectedChange> activity_changes() const;
};

/// Samples per seasonal period (opt.period_seconds) for a series of
/// `samples` samples taken every `step` seconds, or 0 when the detector
/// cannot run on it: STL needs a positive step, a period of at least
/// two samples and at least two full periods of samples.  Every
/// detection path, batched or provisional, admits series by this rule.
int detection_period(std::size_t samples, std::int64_t step,
                     const DetectorOptions& opt);

/// The detector's STL configuration for a series with `period` samples
/// per season: opt.stl with the period set and, unless given, a trend
/// span of ~1.25 periods.
analysis::StlOptions detector_stl_options(const DetectorOptions& opt,
                                          int period);

/// Runs the full trend-extraction + change-detection stage on an
/// active-address count series.  Series shorter than two periods yield
/// an empty result.
DetectionResult detect_changes(const util::TimeSeries& counts,
                               const DetectorOptions& opt = {});

/// Span-kernel path: the same stage run through the caller's per-thread
/// analyzer, emitting only the change list (no component series are
/// materialized — the fleet drive never reads them).  `changes` is
/// cleared and refilled; bit-identical to the overload above.
void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<DetectedChange>& changes);

/// Batched detection: queues block jobs and runs the STL -> z-score ->
/// CUSUM chain for up to kMaxBatchLanes of them at once through the
/// SoA kernels (analysis/batch.h), then the same per-lane change
/// extraction and outage filters as detect_changes().  Each block's
/// change list is bit-identical to the scalar path's.
///
/// Naive-trend jobs (the section 2.5 ablation) run through the
/// per-block chain at flush time; there is no batched naive kernel.
///
/// Contracts: one detector per thread; queued spans must stay valid
/// until the enqueue that fills the batch or an explicit flush() — the
/// fleet drives satisfy this by queueing SeriesStore rows, which are
/// stable for the whole run.
class BatchDetector {
 public:
  explicit BatchDetector(
      const DetectorOptions& opt,
      std::size_t max_lanes = analysis::BatchAnalyzer::kMaxLanes);
  BatchDetector(const BatchDetector&) = delete;
  BatchDetector& operator=(const BatchDetector&) = delete;

  /// Queues one block; `out` is cleared now and filled at flush time.
  /// Blocks detection_period() rejects are finished immediately and
  /// never queued.  Reaching max_lanes queued jobs flushes
  /// automatically.
  void enqueue(std::span<const double> counts, util::SimTime start,
               std::int64_t step, std::vector<DetectedChange>* out);

  /// Runs every queued job, grouping equal-shape (length, step) jobs
  /// into SoA batches; ragged tails run as narrower batches.
  void flush();

  /// Jobs queued and not yet flushed.
  std::size_t pending() const noexcept { return pending_; }

 private:
  struct Job {
    std::span<const double> counts;
    util::SimTime start = 0;
    std::int64_t step = 0;
    std::vector<DetectedChange>* out = nullptr;
  };

  const DetectorOptions opt_;
  std::size_t max_lanes_;
  std::array<Job, analysis::BatchAnalyzer::kMaxLanes> jobs_;
  std::size_t pending_ = 0;
  analysis::BatchAnalyzer az_;
  analysis::BlockAnalyzer naive_az_;  ///< naive-trend jobs only
};

}  // namespace diurnal::core
