#include "recon/repair.h"

#include <cstdint>

namespace diurnal::recon {

void StreamRepair::reset() {
  addr_.fill(AddrState{});
  processed_ = 0;
  stats_ = RepairStats{};
}

std::size_t StreamRepair::ingest(probe::ObservationVec& stream,
                                 std::size_t base) {
  const std::size_t end = base + stream.size();
  for (std::size_t i = processed_; i < end; ++i) {
    const probe::Observation& obs = stream[i - base];
    AddrState& st = addr_[obs.addr];
    // The address's two trailing observations' values are cached so
    // released (possibly compacted) entries are never reloaded: flip
    // 101 -> 111 when the rescan arrives positive.
    if (obs.up && st.last != kNone && st.has_prev && !st.last_up &&
        st.prev_up) {
      stream[st.last - base].up = true;
      st.last_up = true;
      ++stats_.repaired;
    }
    st.prev_up = st.last_up;
    st.has_prev = st.last != kNone;
    st.last_up = obs.up;
    st.last = i;
  }
  stats_.observations += end - processed_;
  processed_ = end;

  // Everything below the earliest still-mutable observation is final.
  // A held observation is the latest for its address, a non-reply, and
  // has a positive predecessor — the exact flip target a future rescan
  // could rewrite.
  std::size_t frontier = processed_;
  for (const AddrState& st : addr_) {
    if (st.last != kNone && !st.last_up && st.has_prev && st.prev_up &&
        st.last < frontier) {
      frontier = st.last;
    }
  }
  return frontier;
}

template <class Self, class IO>
void StreamRepair::fields(Self& self, IO& io) {
  io.u64(self.processed_);
  io.u64(self.stats_.observations);
  io.u64(self.stats_.repaired);
  for (auto& st : self.addr_) {
    // kNone maps to 0 so untouched addresses cost one varint byte.
    std::uint64_t last = st.last == kNone ? 0 : st.last + 1;
    io.u64(last);
    io.flags(st.has_prev, st.last_up, st.prev_up);
    if constexpr (IO::kReading) {
      st.last = last == 0 ? kNone : static_cast<std::size_t>(last - 1);
    }
  }
}

void StreamRepair::save(util::StateWriter& w) const { fields(*this, w); }

void StreamRepair::restore(util::StateReader& r) { fields(*this, r); }

bool StreamRepair::addresses_within(std::size_t base,
                                    std::size_t end) const noexcept {
  if (processed_ < base || processed_ > end) return false;
  for (const AddrState& st : addr_) {
    const bool held =
        st.last != kNone && !st.last_up && st.has_prev && st.prev_up;
    if (held && (st.last < base || st.last >= processed_)) return false;
  }
  return true;
}

}  // namespace diurnal::recon
