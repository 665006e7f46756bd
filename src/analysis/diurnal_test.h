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

struct DiurnalOptions {
  /// Fraction of total (mean-removed) power that must fall on the
  /// 24-hour frequency and harmonics for the block to count as diurnal.
  double min_power_ratio = 0.3;
  /// Number of harmonics of the daily frequency to include (1 = 24h
  /// only; 4 = 24h, 12h, 8h, 6h as in the deployment configuration).
  int harmonics = 4;
  /// Include +-1 bins around each harmonic (weekly sidebands).
  bool include_sidebands = true;

  /// Duration strictness (paper section 3.2.2: applying "strict
  /// requirements across a longer duration" sheds blocks whose diurnal
  /// activity changed mid-window).  For windows of at least two
  /// segments, diurnality must also hold in most segments individually.
  int segment_days = 14;
  double segment_ratio_factor = 0.7;   ///< per-segment threshold scale
  double min_segment_fraction = 0.85;  ///< segments that must pass
};

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
DiurnalResult test_diurnal(std::span<const double> values, double samples_per_day,
                           const DiurnalOptions& opt = {});

/// Allocation-free variant: the mean-removed window copy is leased from
/// `ws`.  Bit-identical to the overloads above.
DiurnalResult test_diurnal(std::span<const double> values, double samples_per_day,
                           const DiurnalOptions& opt, Workspace& ws);

}  // namespace diurnal::analysis
