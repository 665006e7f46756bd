// Ground-truth event calendar for the synthetic world.
//
// The paper validates detections against documented human-activity
// changes: Covid-19 work-from-home orders (section 3.6), national
// holidays like China's Spring Festival (section 4.2), and curfews and
// unrest such as the Delhi riots (section 4.3).  We encode those events
// with their real dates; the world generator translates them into
// behaviour changes, and the validation benches score detections
// against this calendar.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/gridcell.h"
#include "util/date.h"

namespace diurnal::sim {

enum class EventKind {
  kWorkFromHome,  ///< long-lived shift: office/university activity collapses
  kHoliday,       ///< bounded dip in workday attendance
  kCurfewUnrest,  ///< regional stay-home period (riots, curfews, shutdowns)
};

/// Geographic scope of an event: a whole country or a single gridcell.
struct EventScope {
  std::optional<std::string> country_code;  ///< ISO code, or nullopt
  std::optional<geo::GridCell> cell;        ///< specific gridcell, or nullopt

  bool matches(std::string_view block_country, geo::GridCell block_cell) const;
};

/// One dated ground-truth event.
struct Event {
  EventKind kind = EventKind::kHoliday;
  std::string name;
  EventScope scope;
  util::SimTime start = 0;
  util::SimTime end = 0;  ///< exclusive; for WFH this is the analysis horizon
  /// Fraction of in-scope diurnal blocks whose users actually change
  /// behaviour (the paper's detections cover a subset of blocks even for
  /// nationwide orders).
  double adoption = 0.6;
  /// Residual workday attendance during the event (0.05 = nearly empty
  /// offices).
  double residual_attendance = 0.10;

  /// Gradual-onset window in days.  0 (default) keeps the legacy step
  /// onset with the documented few-day adoption jitter; > 0 spreads
  /// adopting blocks' start dates uniformly over [start, start + ramp)
  /// — the WFH-ramp scenarios where a region phases into lockdown over
  /// a week-plus instead of on one order date.
  int ramp_days = 0;
};

/// The full 2019-10-01 .. 2023-06-30 calendar used by default worlds:
/// per-country Covid-19 WFH dates (from geo::countries()), Spring
/// Festival 2020 and 2023, US holidays (MLK, Presidents' Day), the Delhi
/// unrest window, and the UAE curfew.
std::vector<Event> default_calendar();

/// Events whose scope matches a block and whose window intersects
/// [t0, t1).
std::vector<const Event*> events_for(const std::vector<Event>& calendar,
                                     std::string_view country,
                                     geo::GridCell cell, util::SimTime t0,
                                     util::SimTime t1);

}  // namespace diurnal::sim
