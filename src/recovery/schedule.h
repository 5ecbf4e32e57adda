// The recovery policy and its expander: the recovery-domain part of the
// control-event journal (fault/journal.h).  elastic::plan_control_events
// composes this expander with the integrity and membership ones, and both
// training stacks check what they executed against that one plan.
#pragma once

#include <vector>

#include "fault/fault_plan.h"
#include "fault/journal.h"

namespace shmcaffe::recovery {

/// What the run does about injected failures.  All defaults preserve the
/// pre-recovery behaviour (failures degrade, nothing heals) except SMB
/// failover, which is a no-op without replicas and therefore safe-on.
struct RecoveryPolicy {
  /// Fail over a replicated SMB when its primary fail-stops.
  bool smb_failover = true;
  /// Respawn a replacement for a crashed worker (re-admission).
  bool respawn_crashed = false;
  /// Modelled failure-detection + promotion latency (sim timing).
  double failover_seconds = 0.25;
  /// Modelled respawn + W_g adoption latency before the replacement's first
  /// iteration (sim timing; the functional stack pays real attach cost).
  double readmit_delay_seconds = 0.5;
};

/// Expands a fault plan into the recovery actions `policy` mandates: a
/// kSmbFailover per fail-stopped server, a kWorkerReadmit per crashed
/// worker (earliest crash only — a worker dies once).  Failovers come
/// first, by (fault start time, target), then readmits by (crash
/// iteration, target).
[[nodiscard]] std::vector<fault::ControlEvent> recovery_schedule(const fault::FaultPlan& plan,
                                                                const RecoveryPolicy& policy);

}  // namespace shmcaffe::recovery
