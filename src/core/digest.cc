#include "core/digest.h"

#include <cstdio>

namespace diurnal::core {

std::uint64_t fleet_digest(const FleetResult& r) {
  Fnv1a d;
  d.u64(static_cast<std::uint64_t>(r.funnel.routed));
  d.u64(static_cast<std::uint64_t>(r.funnel.responsive));
  d.u64(static_cast<std::uint64_t>(r.funnel.diurnal));
  d.u64(static_cast<std::uint64_t>(r.funnel.wide_swing));
  d.u64(static_cast<std::uint64_t>(r.funnel.change_sensitive));
  for (const auto& out : r.outcomes) {
    d.u64(static_cast<std::uint64_t>(out.id.id()));
    d.u64(static_cast<std::uint64_t>((out.cls.responsive ? 1 : 0) |
                                     (out.cls.diurnal ? 2 : 0) |
                                     (out.cls.wide_swing ? 4 : 0) |
                                     (out.cls.change_sensitive ? 8 : 0)));
    for (const auto& ch : out.changes) {
      d.u64(static_cast<std::uint64_t>(ch.start));
      d.u64(static_cast<std::uint64_t>(ch.alarm));
      d.u64(static_cast<std::uint64_t>(ch.end));
      d.u64(static_cast<std::uint64_t>(ch.direction));
      d.f64(ch.amplitude);
      d.f64(ch.amplitude_addresses);
      d.u64(static_cast<std::uint64_t>((ch.filtered_as_outage ? 1 : 0) |
                                       (ch.filtered_small ? 2 : 0) |
                                       (ch.filtered_phase_only ? 4 : 0)));
    }
  }
  return d.h;
}

std::string digest_hex(std::uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

}  // namespace diurnal::core
