#include "analysis/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace diurnal::analysis::simd {

namespace {

IsaLevel probe_cpu() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return IsaLevel::kAvx2;
#endif
  return IsaLevel::kGeneric;
}

std::atomic<int> g_forced{-1};
std::atomic<std::uint64_t> g_generic{0};
std::atomic<std::uint64_t> g_avx2{0};

}  // namespace

IsaLevel detected_level() noexcept {
  static const IsaLevel detected = probe_cpu();
  return detected;
}

std::optional<IsaLevel> env_level() noexcept {
  const char* e = std::getenv("DIURNAL_SIMD");
  if (e == nullptr || *e == '\0') return detected_level();
  if (std::strcmp(e, "generic") == 0 || std::strcmp(e, "scalar") == 0) {
    return IsaLevel::kGeneric;
  }
  return std::nullopt;
}

IsaLevel active_level() noexcept {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<IsaLevel>(forced);
  static const IsaLevel resolved = env_level().value_or(detected_level());
  return resolved;
}

void force_level(IsaLevel level) noexcept {
  if (static_cast<int>(level) > static_cast<int>(detected_level())) {
    level = detected_level();
  }
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_forced_level() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

const char* level_name(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kGeneric: return "generic";
    case IsaLevel::kAvx2: return "avx2";
  }
  return "?";
}

DispatchCounts dispatch_counts() noexcept {
  DispatchCounts c;
  c.generic = g_generic.load(std::memory_order_relaxed);
  c.avx2 = g_avx2.load(std::memory_order_relaxed);
  return c;
}

void reset_dispatch_counts() noexcept {
  g_generic.store(0, std::memory_order_relaxed);
  g_avx2.store(0, std::memory_order_relaxed);
}

void record_dispatch(IsaLevel level) noexcept {
  auto& counter = level == IsaLevel::kAvx2 ? g_avx2 : g_generic;
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace diurnal::analysis::simd
