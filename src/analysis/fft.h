// Spectral tool for the diurnality test (paper section 2.4).
//
// Goertzel evaluation of the DFT at an arbitrary real frequency, which
// lets the diurnality test place bins exactly at the 24-hour frequency
// and its harmonics for any series length (no power-of-two padding).
#pragma once

#include <span>

namespace diurnal::analysis {

/// Goertzel: squared magnitude of the DFT of x at `cycles` full periods
/// per series length (need not be integral, but bins are exact when it
/// is). DC is removed by the caller if desired.
double goertzel_power(std::span<const double> x, double cycles) noexcept;

}  // namespace diurnal::analysis
