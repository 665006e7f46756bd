// Canonical fleet-result digest: an order-sensitive FNV-1a hash over
// the funnel, every per-block outcome, and every detected change.  Two
// runs produce the same digest iff they made identical decisions for
// identical blocks in identical order, so the digest is the
// determinism and batch/streaming-equivalence oracle (degradation
// accounting is intentionally excluded — it annotates, never decides).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "core/pipeline.h"

namespace diurnal::core {

/// FNV-1a over fields fed one at a time, integers little-endian first
/// (endianness-independent; never raw struct bytes, whose padding would
/// make it nondeterministic).  The one accumulator behind the fleet
/// digest, the snapshot answers digest and the checkpoint fingerprint.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(std::uint8_t b) noexcept { h = (h ^ b) * 0x100000001b3ULL; }
  void bytes(std::span<const std::uint8_t> b) noexcept {
    for (const std::uint8_t x : b) byte(x);
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 64; i += 8) byte(static_cast<std::uint8_t>(v >> i));
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) noexcept { byte(v ? 1 : 0); }
};

std::uint64_t fleet_digest(const FleetResult& r);

/// 16-digit lowercase hex, the form used in golden values and logs.
std::string digest_hex(std::uint64_t d);

}  // namespace diurnal::core
