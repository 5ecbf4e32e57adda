// The recovery policy and its expander: the recovery-domain part of the
// control-event journal (fault/journal.h).  elastic::plan_control_events
// composes this expander with the integrity and membership ones, and both
// training stacks check what they executed against that one plan.
#pragma once

#include <vector>

#include "fault/fault_plan.h"
#include "fault/journal.h"

namespace shmcaffe::recovery {

/// What the run does about injected failures.  The default preserves the
/// pre-recovery behaviour for workers (a crash degrades, nothing heals).
/// A replicated SMB always fails over when its primary fail-stops; without
/// replicas there is nothing to fail over to.
struct RecoveryPolicy {
  /// Respawn a replacement for a crashed worker (re-admission).
  bool respawn_crashed = false;
  /// Modelled failure-detection + promotion latency (sim timing).
  double failover_seconds = 0.25;
};

/// Expands a fault plan into the recovery actions `policy` mandates: a
/// kSmbFailover per fail-stopped server (fault::executed drops the ones a
/// run does not observe: a backup's death, a fail-stop without replicas),
/// and a kWorkerReadmit per crashed worker (earliest crash only — a worker
/// dies once) when policy.respawn_crashed is set.  Failovers come first, by
/// (fault start time, target), then readmits by (crash iteration, target).
[[nodiscard]] std::vector<fault::ControlEvent> recovery_schedule(const fault::FaultPlan& plan,
                                                                const RecoveryPolicy& policy);

}  // namespace shmcaffe::recovery
