#include "recovery/schedule.h"

#include <algorithm>
#include <map>
#include <utility>

namespace shmcaffe::recovery {

std::vector<fault::ControlEvent> recovery_schedule(const fault::FaultPlan& plan,
                                                  const RecoveryPolicy& policy) {
  std::vector<fault::FaultEvent> fail_stops;
  // Earliest crash per worker: a worker fail-stops once, so later crash
  // events for the same target are unreachable and must not schedule a
  // second re-admission.
  std::map<int, std::int64_t> first_crash;
  for (const fault::FaultEvent& event : plan.events()) {
    if (event.kind == fault::FaultKind::kServerFailStop) {
      fail_stops.push_back(event);
    } else if (event.kind == fault::FaultKind::kWorkerCrash && policy.respawn_crashed) {
      const auto it = first_crash.find(event.target);
      if (it == first_crash.end() || event.iteration < it->second) {
        first_crash[event.target] = event.iteration;
      }
    }
  }
  std::sort(fail_stops.begin(), fail_stops.end(),
            [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
              if (a.start_seconds != b.start_seconds) return a.start_seconds < b.start_seconds;
              return a.target < b.target;
            });
  std::vector<std::pair<std::int64_t, int>> crashes;  // (iteration, worker)
  for (const auto& [worker, iteration] : first_crash) crashes.emplace_back(iteration, worker);
  std::sort(crashes.begin(), crashes.end());

  std::vector<fault::ControlEvent> schedule;
  for (const fault::FaultEvent& event : fail_stops) {
    fault::record(schedule, fault::ControlAction::kSmbFailover, event.target);
  }
  for (const auto& [iteration, worker] : crashes) {
    fault::record(schedule, fault::ControlAction::kWorkerReadmit, worker);
  }
  return schedule;
}

}  // namespace shmcaffe::recovery
