// Spectral diurnality test (paper section 2.4, following Quan et al. 2014).
//
// A block is diurnal when a substantial share of the variance of its
// active-address series concentrates at the 24-hour frequency or its
// harmonics.  We evaluate exact bins with Goertzel so any series length
// works, and include one neighboring bin on each side of every harmonic
// to capture the weekly-modulation sidebands of work-week blocks.
#pragma once

#include <span>

#include "analysis/workspace.h"

namespace diurnal::analysis {

/// Fraction of total (mean-removed) power that must fall on the 24-hour
/// frequency and its harmonics for the block to count as diurnal.
inline constexpr double kMinPowerRatio = 0.3;
/// Harmonics of the daily frequency in the band: 24h, 12h, 8h and 6h,
/// as in the deployment configuration, each with its +-1-bin sidebands.
inline constexpr int kDiurnalHarmonics = 4;

/// Duration strictness (paper section 3.2.2: applying "strict
/// requirements across a longer duration" sheds blocks whose diurnal
/// activity changed mid-window).  A window of at least two
/// kSegmentDays-day segments must also pass in kMinSegmentFraction of
/// its segments, each against kMinPowerRatio * kSegmentRatioFactor.
inline constexpr int kSegmentDays = 14;
inline constexpr double kSegmentRatioFactor = 0.7;
inline constexpr double kMinSegmentFraction = 0.85;

struct DiurnalResult {
  bool diurnal = false;
  double power_ratio = 0.0;   ///< diurnal-band power / total AC power
  double total_power = 0.0;   ///< N * variance (Parseval denominator)
  double diurnal_power = 0.0; ///< power attributed to the diurnal band
  int segments = 0;           ///< evaluated duration segments
  int segments_diurnal = 0;   ///< segments individually diurnal
};

/// Tests a regularly sampled active-address series, `samples_per_day`
/// samples per day, for diurnality.  The step must divide 24 hours; at
/// least two full days of data are required (otherwise the result is
/// non-diurnal).
DiurnalResult test_diurnal(std::span<const double> values,
                           double samples_per_day);

/// Allocation-free variant: the mean-removed window copy is leased from
/// `ws`.  Bit-identical to the overload above.
DiurnalResult test_diurnal(std::span<const double> values,
                           double samples_per_day, Workspace& ws);

}  // namespace diurnal::analysis
