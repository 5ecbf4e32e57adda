#include "core/run_plan.h"

#include <stdexcept>

#include "fault/injector.h"

namespace shmcaffe::core {

void RunPlan::validate() const {
  if (workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (group_size < 1 || workers % group_size != 0) {
    throw std::invalid_argument("group_size must divide workers");
  }
  if (update_interval < 1) throw std::invalid_argument("update_interval must be >= 1");
  if (smb_servers < 1) throw std::invalid_argument("smb_servers must be >= 1");
  if (smb_replicas < 1) throw std::invalid_argument("smb_replicas must be >= 1");
  if (recovery.respawn_crashed && group_size != 1) {
    // A replacement cannot rejoin a hybrid group mid-collective.
    throw std::invalid_argument("respawn_crashed requires group_size == 1");
  }
  if ((membership != nullptr || membership_policy.straggler_detection) && group_size != 1) {
    // Elastic workers run pure SEASGD: a hybrid group cannot shrink or grow
    // mid-collective.
    throw std::invalid_argument("elastic membership requires group_size == 1");
  }
  if (membership != nullptr) {
    for (const elastic::MembershipEvent& event : membership->joins()) {
      // A cold join never reuses an initial rank's slot — that is the
      // recovery layer's re-admission path.
      if (event.worker < workers) {
        throw std::invalid_argument("join slots must be >= the initial worker count");
      }
    }
  }
}

std::vector<fault::ControlEvent> RunPlan::planned_journal() const {
  return elastic::plan_control_events(faults != nullptr ? &faults->plan() : nullptr, recovery,
                                      integrity, membership, membership_policy, workers);
}

}  // namespace shmcaffe::core
