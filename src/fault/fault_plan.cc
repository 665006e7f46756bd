#include "fault/fault_plan.h"

#include <stdexcept>

namespace diurnal::fault {

using util::SimTime;

const std::vector<std::string>& scenario_names() {
  static const std::vector<std::string> names = {
      "none",     "dropout", "flapping", "reboots",
      "skew",     "bursts",  "truncate", "meltdown",
  };
  return names;
}

namespace {

void add_dropout(FaultPlan& plan, probe::ProbeWindow w) {
  const SimTime span = w.end - w.start;
  plan.outages.push_back(OutageSpec{'e', OutageKind::kHardDown,
                                    w.start + span * 3 / 10,
                                    w.start + span * 7 / 10});
}

void add_flapping(FaultPlan& plan, probe::ProbeWindow w) {
  OutageSpec flap{'j', OutageKind::kFlapping, w.start, w.end};
  flap.flap_period = 2 * util::kSecondsPerHour;
  flap.flap_down_fraction = 0.45;
  plan.outages.push_back(flap);
}

void add_reboots(FaultPlan& plan, probe::ProbeWindow w) {
  OutageSpec reboot{kAllObservers, OutageKind::kScheduledReboot, w.start,
                    w.end};
  reboot.reboot_interval = util::kSecondsPerDay;
  reboot.reboot_duration = 30 * 60;
  plan.outages.push_back(reboot);
}

void add_skew(FaultPlan& plan) {
  plan.skews.push_back(ClockSkewSpec{'n', 90, 200.0});
}

void add_bursts(FaultPlan& plan) {
  plan.bursts.push_back(BurstLossSpec{});  // every observer, whole run
}

void add_truncate(FaultPlan& plan) {
  plan.truncations.push_back(TruncationSpec{'w', 0.30, 0, 0});
}

}  // namespace

FaultPlan scenario(const std::string& name, probe::ProbeWindow window) {
  FaultPlan plan;
  if (name == "none") return plan;
  if (name == "dropout") {
    add_dropout(plan, window);
  } else if (name == "flapping") {
    add_flapping(plan, window);
  } else if (name == "reboots") {
    add_reboots(plan, window);
  } else if (name == "skew") {
    add_skew(plan);
  } else if (name == "bursts") {
    add_bursts(plan);
  } else if (name == "truncate") {
    add_truncate(plan);
  } else if (name == "meltdown") {
    add_dropout(plan, window);
    add_flapping(plan, window);
    add_reboots(plan, window);
    add_skew(plan);
    add_bursts(plan);
    add_truncate(plan);
  } else {
    throw std::invalid_argument("fault::scenario: unknown scenario '" + name +
                                "'");
  }
  return plan;
}

}  // namespace diurnal::fault
