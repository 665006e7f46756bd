// Runtime ISA selection for the batched (SoA) analysis kernels.
//
// The batched kernels in analysis/batch.h are compiled twice from one
// source: a baseline clone (the build's default ISA — SSE2 on x86-64)
// and, on x86, an AVX2 clone produced with the `target` attribute so no
// global -mavx2 flag is needed.  This header owns the choice between
// them: a one-time CPUID probe, an environment override
// (DIURNAL_SIMD=generic forces the baseline clone), a test hook to pin
// the level, and per-level dispatch counters so benches can prove the
// fast path actually ran — a machine without AVX2 must fail a speedup
// gate loudly, never fall back silently.
//
// The two clones are bit-identical by construction: each lane's
// arithmetic chain keeps the scalar kernel's operation order, and the
// AVX2 clone enables only AVX2 (never FMA), so no contraction can
// change a rounding.  Vector width only changes how many independent
// lanes advance per instruction.
#pragma once

#include <cstdint>
#include <optional>

namespace diurnal::analysis::simd {

/// Which clone of the batched kernels executes.
enum class IsaLevel : int {
  kGeneric = 0,  ///< build-default ISA, autovectorized (SSE2 baseline)
  kAvx2 = 1,     ///< AVX2 clone (x86 only, runtime-detected)
};

/// What the CPU supports (one-time probe, ignores overrides).
IsaLevel detected_level() noexcept;

/// DIURNAL_SIMD's level, the one reading of the variable: unset or empty
/// is detected_level(), "generic" or "scalar" is kGeneric, and any other
/// value is std::nullopt, which the tools and benches reject before any
/// work (tools/flags.h) and active_level() treats as unset.
std::optional<IsaLevel> env_level() noexcept;

/// The level the next batched kernel call will dispatch to: the forced
/// level if force_level() is active, else env_level(), else
/// detected_level().
IsaLevel active_level() noexcept;

/// Pins the dispatch level (clamped to detected_level(); a machine
/// without AVX2 cannot be forced onto the AVX2 clone).  Test hook and
/// the bench's scalar-frontier mode.
void force_level(IsaLevel level) noexcept;

/// Clears a force_level() pin.
void clear_forced_level() noexcept;

const char* level_name(IsaLevel level) noexcept;

/// Batched-kernel dispatches per level since the last reset.  Counted
/// once per public batched entry point (stl_decompose_batch etc.), not
/// per inner loop.
struct DispatchCounts {
  std::uint64_t generic = 0;
  std::uint64_t avx2 = 0;
  std::uint64_t total() const noexcept { return generic + avx2; }
};

DispatchCounts dispatch_counts() noexcept;
void reset_dispatch_counts() noexcept;

/// Bumps the counter for `level` (called by the batched kernels).
void record_dispatch(IsaLevel level) noexcept;

}  // namespace diurnal::analysis::simd
