#include "sim/activity_cursor.h"

#include <algorithm>

namespace diurnal::sim {

using util::SimTime;

namespace {

constexpr std::uint32_t kAllHours = 0x00FFFFFFu;

// Bits [lo, hi) of a 24-hour mask.
inline std::uint32_t hour_range_mask(int lo, int hi) noexcept {
  return (hi <= lo) ? 0u : ((1u << hi) - (1u << lo)) & kAllHours;
}

// Order-sensitive digest of a block's DST shifts; bind() compares it to
// decide whether per-address caches may survive a rebind (the profile
// object may have been recycled at the same address with different
// shifts).
std::uint64_t tz_shift_signature(const BlockProfile& block) noexcept {
  std::uint64_t sig = 0;
  for (const TzShift& s : block.tz_shifts) {
    sig = util::mix64(sig ^ static_cast<std::uint64_t>(s.at) ^
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint16_t>(s.offset_hours))
                       << 48));
  }
  return sig;
}

}  // namespace

void ActivityCursor::bind(const BlockProfile& block) {
  // Per-address caches hold time-independent facts of (profile, seed
  // phase): they survive a rebind to the same profile unless the
  // previous pass crossed a renumbering and flipped the seed.  The hour
  // masks stay valid because their row keys are canonical: the local
  // day, the suppression boundary count, and the structural bits replay
  // identically for every observer pass over the same window.  The
  // scalar-fact compares guard against a *different* profile living at
  // the recycled address of the previous one (stack-built blocks in
  // tests); profiles must still not be mutated between binds.
  const std::uint64_t tz_sig = tz_shift_signature(block);
  const bool keep_addrs =
      block_ == &block && !renumbered_ && seed_ == block.seed &&
      eb_ == static_cast<int>(block.eb_count) &&
      always_on_ == static_cast<int>(block.always_on) &&
      category_ == block.category &&
      tz_base_seconds_ == static_cast<SimTime>(block.tz_offset_hours) * 3600 &&
      tz_sig_ == tz_sig &&
      base_attendance_ == static_cast<double>(block.base_attendance) &&
      current_fraction_ == static_cast<double>(block.current_fraction) &&
      vacate_at_ == block.vacate_at && renumber_at_ == block.renumber_at &&
      occupied_from_ == block.occupied_from &&
      occupied_until_ == block.occupied_until && cgnat_at_ == block.cgnat_at;
  block_ = &block;
  eb_ = static_cast<int>(block.eb_count);
  always_on_ = static_cast<int>(block.always_on);
  vacate_keep_ = std::min<int>(block.always_on, 2);
  category_ = block.category;
  dead_ = category_ == BlockCategory::kUnused ||
          category_ == BlockCategory::kFirewalled;
  addr_limit_ = dead_ ? 0 : eb_;
  check_stale_ = block.current_fraction < 1.0f;
  slotted_ = category_ == BlockCategory::kIntermittent ||
             category_ == BlockCategory::kServerFarm;
  farm_ = category_ == BlockCategory::kServerFarm;
  uses_suppression_ = category_ == BlockCategory::kMixed ||
                      category_ == BlockCategory::kOffice ||
                      category_ == BlockCategory::kUniversity ||
                      category_ == BlockCategory::kHomeDynamic;
  vacate_at_ = block.vacate_at;
  renumber_at_ = block.renumber_at;
  renumber_appear_ =
      block.renumber_at >= 0 ? block.renumber_at + schedule::kRenumberGap : -1;
  occupied_from_ = block.occupied_from;
  occupied_until_ = block.occupied_until;
  cgnat_at_ = block.cgnat_at;
  tz_base_seconds_ = static_cast<SimTime>(block.tz_offset_hours) * 3600;
  tz_seconds_ = tz_base_seconds_;
  tz_hours_ = block.tz_offset_hours;
  has_tz_shifts_ = !block.tz_shifts.empty();
  tz_sig_ = tz_sig;
  seed_ = block.seed;
  renumbered_ = false;
  base_attendance_ = static_cast<double>(block.base_attendance);
  current_fraction_ = static_cast<double>(block.current_fraction);
  thr_slot_ = schedule::chance_threshold(farm_ ? 0.75 : 0.45);
  thr_server_on_ = schedule::chance_threshold(0.01);
  thr_server_farm_ = schedule::chance_threshold(0.04);

  fast_until_ = kNever;  // first active() call populates everything
  stable_until_ = kNever;
  sup_valid_until_ = kNever;
  sup_residual_ = 1.0;
  sup_wfh_ = false;
  sup_any_ = false;
  sup_gen_ = 0;
  outage_valid_until_ = kNever;
  outage_active_ = false;
  outage_begin_ = 0;

  if (!keep_addrs) reset_addr_states();
}

void ActivityCursor::reset_addr_states() noexcept {
  addrs_.assign(static_cast<std::size_t>(eb_), AddrState{});
  // addr_stage is shared by every per-address hash chain, so deriving it
  // eagerly keeps all later fills at two mix64 rounds instead of three.
  for (int a = 0; a < eb_; ++a) {
    addrs_[static_cast<std::size_t>(a)].h1 = schedule::addr_stage(seed_, a);
  }
  slot_caches_.assign(slotted_ ? static_cast<std::size_t>(eb_) * 4 : 0,
                      SlotCache{});
  // Invalidating day_keys_ is enough to drop every cached mask row; the
  // row storage itself is only ever read behind a matching key, so it is
  // grown (once, to the largest eb seen by this cursor) but never
  // cleared.
  day_keys_.assign(kDaySlots, kNoKey);
  const std::size_t need = kDaySlots * static_cast<std::size_t>(eb_);
  if (day_masks_.size() < need) day_masks_.resize(need);
  row_masks_ = nullptr;
}

void ActivityCursor::refresh_window(SimTime t) noexcept {
  // Resolve the UTC offset in force (DST blocks only; the scan mirrors
  // schedule::tz_offset_seconds).  stable_until_ is bounded by the next
  // transition below, so the offset is constant across the whole window
  // and the inline hour tick never needs to re-resolve it.
  if (has_tz_shifts_) {
    std::int16_t hours = block_->tz_offset_hours;
    for (const TzShift& s : block_->tz_shifts) {
      if (t < s.at) break;
      hours = s.offset_hours;
    }
    tz_hours_ = hours;
    tz_seconds_ = static_cast<SimTime>(hours) * 3600;
  }
  // Local clock (tz offsets are whole hours, so local hour boundaries
  // coincide with absolute ones, as do the 6h/8h slot boundaries).
  const SimTime local = t + tz_seconds_;
  std::int64_t day = local / util::kSecondsPerDay;
  std::int64_t rem = local % util::kSecondsPerDay;
  if (rem < 0) {
    rem += util::kSecondsPerDay;
    --day;
  }
  clock_hour_ = static_cast<int>(rem / 3600);
  slot6_ = schedule::intermittent_slot(t);
  slot8_ = schedule::churny_slot(t);
  if (t >= 0) {
    // Slot phase for the inline hour tick (only reachable for t > 0,
    // where truncating and floor division agree).
    const std::int64_t abs_hour = t / 3600;
    h6_ = static_cast<std::int32_t>(abs_hour % 6);
    h8_ = static_cast<std::int32_t>(abs_hour % 8);
  }
  const SimTime hour_end = t + (3600 - rem % 3600);

  if (t < stable_until_) {
    // Hour tick: still the same local day with the same suppression,
    // outage, and structural state — only the hour and the 6h/8h slot
    // indices moved, so everything keyed by row_key_ stays valid.  This
    // is the common refresh (23 of 24 per simulated day).
    fast_until_ = std::min(hour_end, stable_until_);
    return;
  }

  const int wd =
      static_cast<int>(((day + schedule::kEpochWeekday) % 7 + 7) % 7);
  clock_day_ = day;
  clock_workday_ = wd >= 1 && wd <= 5;

  // The stable window ends at the next local midnight or the next
  // suppression/outage/structural boundary, whichever comes first.
  SimTime stable = (day + 1) * util::kSecondsPerDay - tz_seconds_;

  if (uses_suppression_) {
    if (t >= sup_valid_until_) refresh_suppression(t);
    stable = std::min(stable, sup_valid_until_);
  }
  if (t >= outage_valid_until_) refresh_outage(t);
  stable = std::min(stable, outage_valid_until_);

  // Structural state and its future edges.
  const bool renumber_on = renumber_at_ >= 0;
  const bool in_gap =
      renumber_on && t >= renumber_at_ && t < renumber_appear_;
  const bool flipped = renumber_on && t >= renumber_appear_;
  if (flipped && !renumbered_) {
    // One-time transition (t is monotone): the post-renumber population
    // draws from a different seed, so every per-address memo is stale.
    seed_ = schedule::renumbered_seed(seed_);
    renumbered_ = true;
    reset_addr_states();
  }
  vacated_ = vacate_at_ >= 0 && t >= vacate_at_;
  // The oracle resolves a vacate before the renumber remap, so a vacated
  // block answers for its original low addresses, un-mirrored.
  flip_ = flipped && !vacated_;
  humans_absent_ = !humans_present(*block_, t);
  plain_ = !outage_active_ && !in_gap;

  const SimTime edges[] = {vacate_at_,     renumber_at_,    renumber_appear_,
                           occupied_from_, occupied_until_, cgnat_at_};
  for (const SimTime e : edges) {
    if (e > t) stable = std::min(stable, e);
  }
  if (has_tz_shifts_) {
    const SimTime next_shift = schedule::next_tz_shift_after(*block_, t);
    if (next_shift > t) stable = std::min(stable, next_shift);
  }
  stable_until_ = stable;
  fast_until_ = std::min(hour_end, stable);

  row_key_ = (static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(static_cast<std::int8_t>(tz_hours_)))
              << 56) |
             (static_cast<std::uint64_t>(day) << 32) |
             (static_cast<std::uint64_t>(sup_gen_) << 2) |
             (vacated_ ? 2u : 0u) | (humans_absent_ ? 1u : 0u);

  // Presence-draw thresholds for this day row.  The probability
  // expressions mirror the stateless oracle operation-for-operation (see
  // workday_mask/home_mask), only hoisted from per-address fills to one
  // evaluation per day.
  switch (category_) {
    case BlockCategory::kMixed:
    case BlockCategory::kOffice:
    case BlockCategory::kUniversity: {
      double attendance_scale;
      double weekend_attendance;
      if (category_ == BlockCategory::kMixed) {
        attendance_scale = 0.55 * (sup_any_ ? sup_residual_ : 1.0);
        weekend_attendance = 0.10;
      } else if (category_ == BlockCategory::kOffice) {
        attendance_scale = sup_any_ ? sup_residual_ : 1.0;
        weekend_attendance = 0.06;
      } else {  // kUniversity
        attendance_scale = sup_any_ ? sup_residual_ : 1.0;
        weekend_attendance = 0.15;
      }
      const double base = clock_workday_
                              ? base_attendance_ * attendance_scale
                              : weekend_attendance;
      thr_presence_ = schedule::chance_threshold(base);
      break;
    }
    case BlockCategory::kHomeDynamic: {
      const double scale =
          (sup_any_ && !sup_wfh_) ? std::max(sup_residual_, 0.35) : 1.0;
      thr_home_evening_ =
          schedule::chance_threshold(0.85 * scale * base_attendance_);
      thr_home_wfh_ =
          schedule::chance_threshold(0.70 * scale * base_attendance_);
      break;
    }
    default:
      break;
  }
  // Collapse the slot-session gate (slotted && addr >= always_on &&
  // !vacated && !humans_absent) into one compare for the probe path.
  slot_gate_lo_ = (slotted_ && !vacated_ && !humans_absent_)
                      ? always_on_
                      : std::numeric_limits<int>::max();

  // Slot-session day expansion (see compute_mask): slot boundaries are
  // whole-hour aligned, so the day's 6h/8h slot indices collapse to at
  // most five (slot, hour-mask) segments shared by every slotted
  // address.  Guarded to nonnegative day starts — the slot index uses
  // truncating division, which is constant within an hour only there;
  // negative days keep the per-slot path (and fast_view withholds the
  // row).
  slot_rows_ok_ = false;
  if (plain_ && slot_gate_lo_ < addr_limit_) {
    const SimTime day_start = clock_day_ * util::kSecondsPerDay - tz_seconds_;
    if (day_start >= 0) {
      slot_rows_ok_ = true;
      n_segs_ = 0;
      for (int h = 0; h < 24; ++h) {
        const SimTime th = day_start + static_cast<SimTime>(h) * 3600;
        const std::int64_t hslot = farm_ ? schedule::churny_slot(th)
                                         : schedule::intermittent_slot(th);
        if (n_segs_ == 0 || hslot != seg_slot_[n_segs_ - 1]) {
          seg_slot_[n_segs_] = hslot;
          seg_mask_[n_segs_] = 0;
          ++n_segs_;
        }
        seg_mask_[n_segs_ - 1] |= 1u << h;
      }
    }
  }

  // Day-row fill: probers touch most addresses every local day, so the
  // whole row of hour masks is derived here in one sequential sweep —
  // the per-address hash chains are independent, so they pipeline —
  // and the per-probe path is left with a dense load and a shift.
  // compute_mask is a pure function of (address, row), so deriving a
  // row early is observationally identical to deriving each answer on
  // first use.  Rows are keyed in the day table and survive rebinds to
  // the same profile: the fleet's later observer passes re-sweep the
  // same days and hit every row without re-deriving a single hash.
  if (plain_ && addr_limit_ > 0) {
    const std::size_t slot =
        static_cast<std::uint64_t>(clock_day_) & (kDaySlots - 1);
    std::uint32_t* const row =
        day_masks_.data() + slot * static_cast<std::size_t>(eb_);
    if (day_keys_[slot] != row_key_) {
      day_keys_[slot] = row_key_;
      AddrState* const as = addrs_.data();
      for (int a = 0; a < eb_; ++a) row[a] = compute_mask(as[a], a);
    }
    row_masks_ = row;
  }
}

void ActivityCursor::refresh_suppression(SimTime t) noexcept {
  SimTime next = std::numeric_limits<SimTime>::max();
  double residual = 1.0;
  bool wfh = false;
  bool any = false;
  std::uint32_t gen = 0;
  for (const auto& sup : block_->suppressions) {
    // The generation is the number of interval boundaries at or before
    // t.  It is canonical — a pure function of t, not of which earlier
    // states this cursor happened to observe — so masks cached under a
    // generation stay correct across sparse query patterns and across
    // rebind passes by other observers.
    gen += (t >= sup.start ? 1u : 0u) + (t >= sup.end ? 1u : 0u);
    if (t >= sup.start && t < sup.end) {
      any = true;
      residual = std::min(residual, sup.residual_attendance);
      if (sup.kind == EventKind::kWorkFromHome) wfh = true;
      next = std::min(next, sup.end);
    } else if (t < sup.start) {
      next = std::min(next, sup.start);
    }
  }
  sup_gen_ = gen;
  sup_any_ = any;
  sup_residual_ = residual;
  sup_wfh_ = wfh;
  sup_valid_until_ = next;
}

void ActivityCursor::refresh_outage(SimTime t) noexcept {
  // Skipping the already-ended prefix is safe in any interval order; the
  // remainder is scanned in full, so overlaps and nesting just work.
  const auto& outages = block_->outages;
  while (outage_begin_ < outages.size() && outages[outage_begin_].end <= t) {
    ++outage_begin_;
  }
  SimTime next = std::numeric_limits<SimTime>::max();
  bool active = false;
  for (std::size_t i = outage_begin_; i < outages.size(); ++i) {
    const auto& o = outages[i];
    if (t >= o.start && t < o.end) {
      active = true;
      next = std::min(next, o.end);
    } else if (t < o.start) {
      next = std::min(next, o.start);
    }
  }
  outage_active_ = active;
  outage_valid_until_ = next;
}

void ActivityCursor::refresh_epoch(AddrState& s, int addr,
                                   bool home) noexcept {
  const std::uint64_t stagger = schedule::epoch_stagger(s.h1);
  std::int64_t epoch = schedule::epoch_of_day(clock_day_, stagger);
  const std::int64_t stag_mod =
      static_cast<std::int64_t>(stagger % schedule::kEpochDays);
  s.epoch_from =
      static_cast<std::int32_t>(epoch * schedule::kEpochDays - stag_mod);
  if (block_->stable_population) {
    // Frozen population: the oracle pins every device to epoch 0 and
    // never marks it dormant (see device_epoch); epoch_from still
    // tracks the 21-day refresh window so the cache invalidates the
    // same way either way.
    epoch = 0;
    s.dormant = false;
  } else {
    s.dormant = schedule::epoch_dormant(s.h1, epoch);
  }
  if (s.dormant) return;
  if (home) {
    s.open_hour = static_cast<std::uint8_t>(
        schedule::evening_start_hour(seed_, epoch, addr));
    s.close_hour = 24;
  } else {
    const auto hours = schedule::work_hours(seed_, epoch, addr);
    s.open_hour = static_cast<std::uint8_t>(hours.arrival);
    s.close_hour = static_cast<std::uint8_t>(hours.departure);
  }
}

std::uint32_t ActivityCursor::server_mask(const AddrState& s,
                                          std::uint64_t restart_thr) noexcept {
  const std::uint64_t day_h = schedule::server_day_hash(s.h1, clock_day_);
  if ((day_h >> 11) >= restart_thr) return kAllHours;
  const int restart_hour = static_cast<int>((day_h >> 32) % 24);
  return kAllHours & ~(1u << restart_hour);
}

std::uint32_t ActivityCursor::workday_mask(AddrState& s, int addr) noexcept {
  if (clock_day_ < s.epoch_from ||
      clock_day_ >= s.epoch_from + schedule::kEpochDays) {
    refresh_epoch(s, addr, /*home=*/false);
  }
  if (s.dormant) return 0;
  // The attendance probability (oracle-exact, including the
  // suppression-residual scale) is folded into thr_presence_ by
  // refresh_window; only the per-address day draw remains here.
  const std::uint64_t day_h =
      schedule::workday_presence_hash(s.h1, clock_day_);
  if ((day_h >> 11) >= thr_presence_) return 0;
  return hour_range_mask(s.open_hour, s.close_hour);
}

std::uint32_t ActivityCursor::home_mask(AddrState& s, int addr) noexcept {
  if (clock_day_ < s.epoch_from ||
      clock_day_ >= s.epoch_from + schedule::kEpochDays) {
    refresh_epoch(s, addr, /*home=*/true);
  }
  if (s.dormant) return 0;
  const int evening_start = s.open_hour;
  const bool weekend = !clock_workday_;
  // Window with presence 0.85: evening hours, all day from 9 on weekends.
  const std::uint32_t evening = weekend ? hour_range_mask(9, 24)
                                        : hour_range_mask(evening_start, 24);
  // Window with presence 0.70: WFH keeps people home on weekday daytimes.
  const std::uint32_t wfh_daytime =
      (!weekend && sup_wfh_) ? hour_range_mask(9, evening_start) : 0;
  // Presence probabilities (with the suppression-residual scale) live in
  // the thr_home_* members, refreshed with the day row.
  const std::uint64_t day_h = schedule::home_presence_hash(s.h1, clock_day_);
  std::uint32_t mask = 0;
  if ((day_h >> 11) < thr_home_evening_) mask |= evening;
  if (wfh_daytime != 0 && (day_h >> 11) < thr_home_wfh_) mask |= wfh_daytime;
  return mask;
}

std::uint32_t ActivityCursor::compute_mask(AddrState& s, int addr) noexcept {
  std::uint32_t mask = 0;
  if (vacated_) {
    // Vacated (e.g. VPN moved): only a couple of infrastructure hosts
    // stay, and the oracle resolves this before every other draw.
    mask = addr < vacate_keep_ ? kAllHours : 0;
  } else if (addr < always_on_) {
    mask = server_mask(s, thr_server_on_);
  } else if (humans_absent_) {
    mask = 0;  // outside the occupancy window only infrastructure answers
  } else if (check_stale_ && is_stale(s)) {
    mask = 0;
  } else if (addr >= slot_gate_lo_ && (!farm_ || farm_kind(s) == 1)) {
    // Slot-session address: OR the day's slot draws (the same (h1, slot)
    // hashes fill_slot would make, one per segment instead of one per
    // probe) into an hour mask.  Without the segment table (negative
    // days) the entry stays 0 and is never read: active() keeps the
    // per-slot path for these addresses and fast_view withholds the row.
    if (slot_rows_ok_) {
      for (int k = 0; k < n_segs_; ++k) {
        const std::uint64_t h =
            farm_ ? schedule::churny_hash(s.h1, seg_slot_[k])
                  : schedule::intermittent_hash(s.h1, seg_slot_[k]);
        if ((h >> 11) < thr_slot_) mask |= seg_mask_[k];
      }
    }
  } else {
    switch (category_) {
      case BlockCategory::kServerFarm:
        // stable kind (churny takes slots)
        mask = server_mask(s, thr_server_farm_);
        break;
      case BlockCategory::kMixed:
      case BlockCategory::kOffice:
      case BlockCategory::kUniversity:
        mask = workday_mask(s, addr);
        break;
      case BlockCategory::kHomeDynamic:
        mask = home_mask(s, addr);
        break;
      default:  // NAT gateways and (unreachable here) slot categories
        mask = 0;
        break;
    }
  }
  return mask;
}

}  // namespace diurnal::sim
