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
#include "analysis/cusum.h"
#include "analysis/stl.h"
#include "util/date.h"

namespace diurnal::core {

/// Seasonal period (one week: the STL seasonal component then models
/// daily and weekly structure, as in Figure 1b).
inline constexpr std::int64_t kDetectionPeriodSeconds =
    7 * util::kSecondsPerDay;

/// Paired down/up rule (section 2.6): a change whose alarm is followed
/// by an opposite-direction alarm within kOutagePairWindow, the smaller
/// amplitude at least kOutageAmplitudeRatio of the larger, is an
/// outage/renumbering pair.  Outages are minutes to a few hours, so
/// their recovery alarms land within days, while week-long holidays
/// recover much later and survive the filter.
inline constexpr std::int64_t kOutagePairWindow = 3 * util::kSecondsPerDay;
inline constexpr double kOutageAmplitudeRatio = 0.5;

/// Raw-counts outage cross-check (section 2.6: "we can filter out such
/// events by comparing them with outage detections"): a bounded dip of
/// the raw counts below kOutageLevelFraction of the block's typical
/// level, lasting at most kMaxOutageDuration, is an outage; a down/up
/// pair it explains is discarded.  Longer low periods (week-long
/// holidays, WFH) are not outages.
inline constexpr std::int64_t kMaxOutageDuration = 48 * util::kSecondsPerHour;
inline constexpr double kOutageLevelFraction = 0.25;

/// Minimum |trend change| in addresses for a counted change: the
/// z-score normalization gives every block unit variance, so without a
/// physical floor the CUSUM chatters on blocks whose trend wiggles by a
/// device or two.
inline constexpr double kMinChangeAddresses = 1.5;

/// Raw-volume corroboration (DetectorOptions::phase_shift_filter): a
/// change whose one-period-windowed raw means before and after differ
/// by less than this fraction of its trend amplitude is a phase
/// artifact.
inline constexpr double kPhaseCorroborationRatio = 0.5;

struct DetectorOptions {
  analysis::CusumOptions cusum{};  ///< the paper's threshold 1, drift 0.001
  /// Raw-volume corroboration (the timezone/DST cross-check): a genuine
  /// activity change moves the block's mean activity volume by an
  /// amount comparable to its trend step, while a clock shift (a DST
  /// transition moving the whole schedule by an hour) changes phase but
  /// not volume — yet still perturbs the globally fitted STL trend
  /// enough for the CUSUM to alarm.  When enabled, a change failing
  /// kPhaseCorroborationRatio is marked as a phase artifact.  Off by
  /// default: the golden-digest contract freezes the default pipeline's
  /// decisions.
  bool phase_shift_filter = false;
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

/// Samples per seasonal period (kDetectionPeriodSeconds) for a series
/// of `samples` samples taken every `step` seconds, or 0 when the
/// detector cannot run on it: STL needs a positive step, a period of at
/// least two samples and at least two full periods of samples.  Every
/// detection path, batched or provisional, admits series by this rule.
int detection_period(std::size_t samples, std::int64_t step);

/// The detector's STL configuration for a series with `period` samples
/// per season: one robustness pass and a trend span of ~1.25 periods.
analysis::StlOptions detector_stl_options(int period);

/// Everything after the trend -> z-score -> CUSUM chain of one series:
/// turns the chain's change points `cps` into annotated changes
/// (appended to `changes`) and runs the outage filters.  `trend` is the
/// chain's trend, `period` the series' detection_period().  The one
/// body of these rules, run per lane by BatchDetector (and by the
/// scalar oracle the tests compare it with).
void extract_changes(std::span<const double> counts, util::SimTime start,
                     std::int64_t step, int period,
                     const DetectorOptions& opt,
                     std::span<const analysis::ChangePoint> cps,
                     std::span<const double> trend, analysis::Workspace& ws,
                     std::vector<DetectedChange>& changes);

/// Batched detection: queues block jobs and runs the STL -> z-score ->
/// CUSUM chain for up to kMaxBatchLanes of them at once through the
/// SoA kernels (analysis/batch.h), then extract_changes() per lane.
/// Each block's change list is bit-identical to the scalar chain's.
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
};

}  // namespace diurnal::core
