#include "sim/events.h"

#include "geo/countries.h"

namespace diurnal::sim {

using util::Date;
using util::SimTime;
using util::time_of;

bool EventScope::matches(std::string_view block_country,
                         geo::GridCell block_cell) const {
  if (country_code && *country_code != block_country) return false;
  if (cell && *cell != block_cell) return false;
  return true;
}

std::vector<Event> default_calendar() {
  std::vector<Event> v;

  // Covid-19 work-from-home, one event per country with a documented
  // 2020 date (section 3.6's news-report ground truth).  WFH persists
  // through the 2020h1 analysis horizon.
  const SimTime horizon_2020h1 = time_of(2020, 7, 1);
  for (const auto& c : geo::countries()) {
    if (!c.wfh_2020) continue;
    Event e;
    e.kind = EventKind::kWorkFromHome;
    e.name = "covid-wfh-" + c.code;
    e.scope.country_code = c.code;
    e.start = time_of(*c.wfh_2020);
    e.end = horizon_2020h1;
    e.adoption = 0.45;
    e.residual_attendance = 0.12;
    v.push_back(std::move(e));
  }

  auto holiday = [&](std::string name, const char* country, Date d0, Date d1,
                     double adoption = 0.9, double residual = 0.08) {
    Event e;
    e.kind = EventKind::kHoliday;
    e.name = std::move(name);
    e.scope.country_code = country;
    e.start = time_of(d0);
    e.end = time_of(d1);  // exclusive
    e.adoption = adoption;
    e.residual_attendance = residual;
    v.push_back(std::move(e));
  };

  // Spring Festival: week-long, widely observed (sections 4.2, B.3).
  holiday("spring-festival-2020", "CN", Date{2020, 1, 24}, Date{2020, 2, 3});
  holiday("spring-festival-2023", "CN", Date{2023, 1, 21}, Date{2023, 1, 30});
  holiday("spring-festival-2020-hk", "HK", Date{2020, 1, 25}, Date{2020, 1, 29},
          0.8);
  // US holidays visible in the paper's Figure 1 example block.
  holiday("mlk-day-2020", "US", Date{2020, 1, 20}, Date{2020, 1, 21}, 0.85);
  holiday("presidents-day-2020", "US", Date{2020, 2, 17}, Date{2020, 2, 18},
          0.85);
  holiday("new-year-2020", "CN", Date{2020, 1, 1}, Date{2020, 1, 2}, 0.8);
  holiday("new-year-2020-us", "US", Date{2020, 1, 1}, Date{2020, 1, 2}, 0.8);
  holiday("thanksgiving-2019", "US", Date{2019, 11, 28}, Date{2019, 11, 30},
          0.85);
  holiday("christmas-2019-us", "US", Date{2019, 12, 24}, Date{2019, 12, 27},
          0.85);
  holiday("christmas-2019-de", "DE", Date{2019, 12, 24}, Date{2019, 12, 27},
          0.85);

  // Regional unrest: Delhi riots and stay-home, 2020-02-23..29 (section
  // 4.3): people chose to stay home; partial adoption, single gridcell.
  {
    Event e;
    e.kind = EventKind::kCurfewUnrest;
    e.name = "delhi-unrest-2020";
    e.scope.country_code = "IN";
    e.scope.cell = geo::GridCell::of(28.6, 77.2);  // (28N,76E)
    e.start = time_of(2020, 2, 23);
    e.end = time_of(2020, 3, 1);
    e.adoption = 0.30;
    e.residual_attendance = 0.25;
    v.push_back(std::move(e));
  }
  // UAE overnight curfew + sterilization campaign, 2020-03-26..29
  // (section 3.7); modeled on top of the UAE WFH event.
  {
    Event e;
    e.kind = EventKind::kCurfewUnrest;
    e.name = "uae-curfew-2020";
    e.scope.country_code = "AE";
    e.start = time_of(2020, 3, 26);
    e.end = time_of(2020, 3, 30);
    e.adoption = 0.5;
    e.residual_attendance = 0.10;
    v.push_back(std::move(e));
  }
  return v;
}

std::vector<const Event*> events_for(const std::vector<Event>& calendar,
                                     std::string_view country,
                                     geo::GridCell cell, util::SimTime t0,
                                     util::SimTime t1) {
  std::vector<const Event*> out;
  for (const auto& e : calendar) {
    if (e.start < t1 && e.end > t0 && e.scope.matches(country, cell)) {
      out.push_back(&e);
    }
  }
  return out;
}

}  // namespace diurnal::sim
