#include "core/detect.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "analysis/naive_seasonal.h"
#include "analysis/stats.h"

namespace diurnal::core {

std::vector<DetectedChange> DetectionResult::activity_changes() const {
  std::vector<DetectedChange> out;
  for (const auto& c : changes) {
    if (c.counted()) out.push_back(c);
  }
  return out;
}

namespace {

// Marks closely paired opposite-direction changes as outage/renumbering
// artifacts (section 2.6): an outage is a down change followed shortly
// by a comparable up change; renumbering produces the same signature.
void filter_outage_pairs(std::vector<DetectedChange>& changes,
                         const DetectorOptions& opt) {
  for (std::size_t i = 0; i + 1 < changes.size(); ++i) {
    auto& a = changes[i];
    auto& b = changes[i + 1];
    if (a.direction == b.direction) continue;
    if (b.alarm - a.alarm > opt.outage_pair_window) continue;
    const double amp_a = std::abs(a.amplitude);
    const double amp_b = std::abs(b.amplitude);
    if (std::min(amp_a, amp_b) >=
        opt.outage_amplitude_ratio * std::max(amp_a, amp_b)) {
      a.filtered_as_outage = true;
      b.filtered_as_outage = true;
    }
  }
}

// Crude raw-counts outage detector: maximal runs where the count falls
// below a fraction of the block's typical level, bounded on both sides
// and short enough to be an outage rather than a behaviour change.
struct RawInterval {
  util::SimTime start;
  util::SimTime end;
};

void detect_raw_outages(std::span<const double> counts, util::SimTime start,
                        std::int64_t step, const DetectorOptions& opt,
                        analysis::Workspace& ws,
                        std::vector<RawInterval>& out) {
  out.clear();
  if (counts.size() < 8 || step <= 0 || step > util::kSecondsPerHour * 6) {
    return;
  }

  // Per-hour-of-week median profile: a work-week block is *normally*
  // quiet at night and on weekends, so only hours that are typically
  // active can evidence an outage.  (Real outage detectors have the
  // same blind spot.)  Needs a few weeks of data to be meaningful.
  auto time_at = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(i) * step;
  };
  auto hour_of_week = [&](std::size_t i) {
    const util::SimTime t = time_at(i);
    return static_cast<std::size_t>(util::weekday_of(t)) * 24 +
           static_cast<std::size_t>(util::hour_of_day(t));
  };
  if (counts.size() < 4 * 168 * static_cast<std::size_t>(
                          util::kSecondsPerHour / step + 1) &&
      time_at(counts.size()) - start < 28 * util::kSecondsPerDay) {
    return;
  }
  // Counting sort by hour-of-week into one leased buffer, then sort
  // each hour's segment in place: same multiset per hour as the legacy
  // 168-vector bucketing, so quantile_sorted() reproduces
  // analysis::median() bit for bit with no per-call allocation.
  std::array<std::size_t, 168> cnt{};
  for (std::size_t i = 0; i < counts.size(); ++i) ++cnt[hour_of_week(i)];
  auto lease = ws.acquire(counts.size());
  const std::span<double> buckets = lease.span();
  std::array<std::size_t, 168> off{};
  std::size_t acc = 0;
  for (std::size_t h = 0; h < 168; ++h) {
    off[h] = acc;
    acc += cnt[h];
  }
  std::array<std::size_t, 168> cur = off;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    buckets[cur[hour_of_week(i)]++] = counts[i];
  }
  std::array<double, 168> profile{};
  bool any_active_hour = false;
  for (std::size_t h = 0; h < 168; ++h) {
    const std::span<double> seg = buckets.subspan(off[h], cnt[h]);
    std::sort(seg.begin(), seg.end());
    profile[h] = analysis::quantile_sorted(seg, 0.5);
    any_active_hour |= profile[h] >= 2.0;
  }
  if (!any_active_hour) return;

  // A run of "anomalously low at a normally-active hour" samples, with
  // non-informative (normally quiet) hours bridged, bounded on both
  // sides, and short enough to be an outage rather than a behaviour
  // change.
  enum class Sample { kLow, kNormal, kUninformative };
  // A blackout means *nobody* answers — not even the always-on
  // infrastructure that keeps replying through holidays and WFH.  This
  // is what distinguishes an outage dip from a human-activity dip.
  auto classify = [&](std::size_t i) {
    const double med = profile[hour_of_week(i)];
    if (med < 2.0) return Sample::kUninformative;
    return counts[i] < std::max(1.0, opt.outage_level_fraction * med * 0.5)
               ? Sample::kLow
               : Sample::kNormal;
  };

  bool in_run = false;
  bool bounded_left = false;
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    switch (classify(i)) {
      case Sample::kUninformative:
        break;  // bridges a run, neither starts nor ends one
      case Sample::kLow:
        if (!in_run) {
          in_run = true;
          run_start = i;
        }
        break;
      case Sample::kNormal:
        if (in_run) {
          in_run = false;
          const util::SimTime t0 = time_at(run_start);
          const util::SimTime t1 = time_at(i);
          if (bounded_left && t1 - t0 <= opt.max_outage_duration) {
            out.push_back(RawInterval{t0, t1});
          }
        }
        bounded_left = true;
        break;
    }
  }
  // A run still open at the series end is unbounded: not a confirmed
  // outage (it could be WFH in progress).
}

// Raw-volume corroboration (DetectorOptions::phase_shift_filter): the
// mean of the raw counts over one seasonal period on each side of the
// change must move by a fraction of the claimed trend step.  A window
// of one full period averages out the daily and weekly structure, so
// the comparison sees volume, not phase.  Changes too close to a
// series edge for a half-period window on both sides are left alone
// (conservative: never discard for lack of evidence).
void filter_uncorroborated_changes(std::span<const double> counts,
                                   util::SimTime start, std::int64_t step,
                                   int period, const DetectorOptions& opt,
                                   std::vector<DetectedChange>& changes) {
  const auto n = static_cast<std::int64_t>(counts.size());
  const std::int64_t window = period;
  for (auto& c : changes) {
    if (c.filtered_as_outage || c.filtered_small) continue;
    const std::int64_t lo = (c.start - start) / step;
    const std::int64_t hi = (c.end - start) / step;
    // Pre-change window outside the excursion; an excursion starting at
    // the series edge substitutes its own head (the drift accumulates
    // through the excursion, so the head still sits near the old level).
    std::int64_t b_lo = std::max<std::int64_t>(0, lo - window);
    std::int64_t b_hi = lo;
    if (b_hi - b_lo < window / 2) {
      b_lo = lo;
      b_hi = std::min(hi, lo + window);
    }
    // Post-change window, mirrored for excursions open at the series end.
    std::int64_t a_lo = hi;
    std::int64_t a_hi = std::min(n, hi + window);
    if (a_hi - a_lo < window / 2) {
      a_hi = hi;
      a_lo = std::max(lo, hi - window);
    }
    if (b_hi - b_lo < window / 2 || a_hi - a_lo < window / 2) {
      continue;
    }
    double before = 0.0;
    for (std::int64_t i = b_lo; i < b_hi; ++i) before += counts[i];
    before /= static_cast<double>(b_hi - b_lo);
    double after = 0.0;
    for (std::int64_t i = a_lo; i < a_hi; ++i) after += counts[i];
    after /= static_cast<double>(a_hi - a_lo);
    if (std::abs(after - before) < opt.phase_corroboration_ratio *
                                       std::abs(c.amplitude_addresses)) {
      c.filtered_phase_only = true;
    }
  }
}

// Everything after the trend -> z-score -> CUSUM chain: turning change
// points into annotated DetectedChanges and running the outage
// filters.  Shared verbatim by the scalar path (run_detection) and the
// batched per-lane path (BatchDetector::flush), so the two stay
// bit-identical by construction.  `period` is the series' detection
// period.
void extract_changes(std::span<const double> counts, util::SimTime start,
                     std::int64_t step, int period,
                     const DetectorOptions& opt,
                     std::span<const analysis::ChangePoint> cps,
                     std::span<const double> trend, analysis::Workspace& ws,
                     std::vector<DetectedChange>& changes) {
  auto time_at = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(i) * step;
  };
  changes.reserve(cps.size());
  for (const auto& cp : cps) {
    DetectedChange c;
    c.start = time_at(cp.start);
    c.alarm = time_at(cp.alarm);
    c.end = time_at(cp.end);
    c.direction = cp.direction;
    c.amplitude = cp.amplitude;
    c.amplitude_addresses = trend[cp.end] - trend[cp.start];
    c.filtered_small =
        std::abs(c.amplitude_addresses) < opt.min_change_addresses;
    changes.push_back(c);
  }
  filter_outage_pairs(changes, opt);

  // Cross-check against raw-counts outages (section 2.6): an adjacent
  // down/up pair is an outage artifact when a short, bounded blackout of
  // the raw counts *begins during the down excursion and ends during the
  // up excursion* — i.e. the blackout explains the pair.  Anchoring both
  // ends keeps week-long holidays (low runs > max_outage_duration) and
  // changes that merely sit near an unrelated one-hour outage alive.
  std::vector<RawInterval> outages;
  detect_raw_outages(counts, start, step, opt, ws, outages);
  if (!outages.empty()) {
    const std::int64_t margin = util::kSecondsPerDay;
    for (std::size_t i = 0; i + 1 < changes.size(); ++i) {
      auto& a = changes[i];
      auto& b = changes[i + 1];
      if (a.direction != analysis::ChangeDirection::kDown ||
          b.direction != analysis::ChangeDirection::kUp) {
        continue;
      }
      for (const auto& o : outages) {
        if (o.start >= a.start - margin && o.start <= a.end + margin &&
            o.end >= b.start - margin && o.end <= b.end + margin) {
          a.filtered_as_outage = true;
          b.filtered_as_outage = true;
          break;
        }
      }
    }
  }

  if (opt.phase_shift_filter) {
    filter_uncorroborated_changes(counts, start, step, period, opt, changes);
  }
}

}  // namespace

int detection_period(std::size_t samples, std::int64_t step,
                     const DetectorOptions& opt) {
  if (step <= 0) return 0;
  const int period = static_cast<int>(opt.period_seconds / step);
  if (period < 2 || samples < static_cast<std::size_t>(2 * period)) return 0;
  return period;
}

analysis::StlOptions detector_stl_options(const DetectorOptions& opt,
                                          int period) {
  analysis::StlOptions stl = opt.stl;
  stl.period = period;
  if (stl.trend_span == 0) {
    // The Cleveland default (~2 periods) over-smooths step changes,
    // diluting their measured amplitude and delaying the alarm; a
    // span of ~1.25 periods keeps the trend responsive while still
    // suppressing population-churn wiggles.
    stl.trend_span = period + period / 4 + 1;
  }
  return stl;
}

namespace {

// The whole detection stage over span kernels.  `rich` non-null also
// materializes the component series of the legacy DetectionResult.
void run_detection(std::span<const double> counts, util::SimTime start,
                   std::int64_t step, const DetectorOptions& opt,
                   analysis::BlockAnalyzer& az,
                   std::vector<DetectedChange>& changes,
                   DetectionResult* rich) {
  changes.clear();
  const int period = detection_period(counts.size(), step, opt);
  if (period == 0) return;

  analysis::BlockAnalyzer::Decomposition dec;
  if (opt.trend_model == TrendModel::kNaive) {
    dec = az.decompose_naive(counts, period);
  } else {
    dec = az.decompose_stl(counts, detector_stl_options(opt, period));
  }

  const auto z = az.zscore(dec.trend);
  const auto cus = az.cusum(z, opt.cusum);
  extract_changes(counts, start, step, period, opt, cus.changes, dec.trend,
                  az.workspace(), changes);

  if (rich != nullptr) {
    rich->trend = util::TimeSeries(start, step,
                                   std::vector<double>(dec.trend.begin(),
                                                       dec.trend.end()));
    rich->seasonal = util::TimeSeries(
        start, step,
        std::vector<double>(dec.seasonal.begin(), dec.seasonal.end()));
    rich->residual = util::TimeSeries(
        start, step,
        std::vector<double>(dec.residual.begin(), dec.residual.end()));
    rich->normalized_trend =
        util::TimeSeries(start, step, std::vector<double>(z.begin(), z.end()));
    rich->cusum_pos.assign(cus.g_pos.begin(), cus.g_pos.end());
    rich->cusum_neg.assign(cus.g_neg.begin(), cus.g_neg.end());
  }
}

}  // namespace

void detect_changes(std::span<const double> counts, util::SimTime start,
                    std::int64_t step, const DetectorOptions& opt,
                    analysis::BlockAnalyzer& az,
                    std::vector<DetectedChange>& changes) {
  run_detection(counts, start, step, opt, az, changes, nullptr);
}

DetectionResult detect_changes(const util::TimeSeries& counts,
                               const DetectorOptions& opt) {
  thread_local analysis::BlockAnalyzer az;
  DetectionResult res;
  run_detection(counts.span(), counts.start(), counts.step(), opt, az,
                res.changes, &res);
  return res;
}

BatchDetector::BatchDetector(const DetectorOptions& opt,
                             std::size_t max_lanes)
    : opt_(opt),
      max_lanes_(std::clamp<std::size_t>(max_lanes, 1,
                                         analysis::BatchAnalyzer::kMaxLanes)) {
}

void BatchDetector::enqueue(std::span<const double> counts,
                            util::SimTime start, std::int64_t step,
                            std::vector<DetectedChange>* out) {
  out->clear();
  // Blocks the detector rejects produce no changes and never reach the
  // analysis chain, so they are not queued.
  if (detection_period(counts.size(), step, opt_) == 0) return;
  jobs_[pending_++] = Job{counts, start, step, out};
  if (pending_ == max_lanes_) flush();
}

void BatchDetector::flush() {
  if (opt_.trend_model == TrendModel::kNaive) {
    for (std::size_t i = 0; i < pending_; ++i) {
      const Job& job = jobs_[i];
      run_detection(job.counts, job.start, job.step, opt_, naive_az_,
                    *job.out, nullptr);
    }
    pending_ = 0;
    return;
  }
  analysis::for_each_shape_batch(
      std::span<Job>(jobs_.data(), pending_), [](const Job&) { return true; },
      [&](std::span<const std::span<const double>> lanes,
          std::span<const std::size_t> job_of_lane) {
        const Job& lead = jobs_[job_of_lane[0]];
        const int period =
            detection_period(lead.counts.size(), lead.step, opt_);
        az_.run_detection_chain(lanes, detector_stl_options(opt_, period),
                                opt_.cusum);
        for (std::size_t j = 0; j < lanes.size(); ++j) {
          Job& job = jobs_[job_of_lane[j]];
          extract_changes(job.counts, job.start, job.step, period, opt_,
                          az_.changes(j), az_.trend(j), az_.workspace(),
                          *job.out);
        }
      });
  pending_ = 0;
}

}  // namespace diurnal::core
