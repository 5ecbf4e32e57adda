// The run plan both ShmCaffe stacks take: the settings the functional
// trainer (core/trainer.h) and its simulated twin (core/sim_shmcaffe.h)
// share, declared once.  DistTrainOptions and SimShmCaffeOptions derive
// from it, so the twin runs the functional run's own plan
// (`SimShmCaffeOptions sim(options)`), both stacks reject the same plans,
// place replicas on the same physical servers and derive the same planned
// control-event journal.
#pragma once

#include <vector>

#include "elastic/membership.h"
#include "fault/journal.h"
#include "recovery/integrity.h"
#include "recovery/schedule.h"

namespace shmcaffe::fault {
class FaultInjector;
}  // namespace shmcaffe::fault

namespace shmcaffe::core {

struct RunPlan {
  /// Total workers (GPUs).  DistTrainOptions defaults to 4,
  /// SimShmCaffeOptions to 8.
  int workers = 1;
  /// Workers per node group for hybrid SGD; 1 means every worker is its own
  /// group (pure SEASGD, ShmCaffe-A).
  int group_size = 1;
  /// A group exchanges with the SMB every update_interval iterations
  /// (§III-A; the paper's default is 1).
  int update_interval = 1;
  /// Number of SMB servers sharding the global buffer (the paper's future
  /// work §V); 1 = the paper's evaluated configuration.  Each server holds
  /// 1/N of W_g and of every dW_x.
  int smb_servers = 1;
  /// Replicas per SMB shard.  1 = the paper's single passive server (no
  /// redundancy); >= 2 wraps each shard in a ReplicatedSmb ensemble that
  /// mirrors mutations and fails over when the primary fail-stops.
  int smb_replicas = 1;

  /// What the run does about injected failures (failover / re-admission).
  /// Defaults preserve the degrade-only behaviour.
  recovery::RecoveryPolicy recovery;
  /// Data-integrity policy: segment checksums, verification, read-repair,
  /// scrubbing.  Read-repair needs smb_replicas >= 2 (a lone copy has no
  /// peer to vote against).  Defaults keep the checksum-free behaviour.
  recovery::IntegrityPolicy integrity;
  /// Optional fault injection; not owned, must outlive the run.  nullptr =
  /// fault-free.  Worker crashes fell whole groups (keyed on the group
  /// root, worker g * group_size); server faults target physical_server()
  /// indices.
  const fault::FaultInjector* faults = nullptr;
  /// Optional elastic-membership plan (cold joins and voluntary drains at
  /// planned iterations); not owned, must outlive the run.  nullptr = the
  /// fixed-membership behaviour.  Requires group_size == 1: elastic workers
  /// run pure SEASGD (a hybrid group cannot shrink mid-collective).
  const elastic::MembershipPlan* membership = nullptr;
  /// Straggler detection/quarantine policy; the detector runs only when
  /// membership_policy.straggler_detection is set (which also requires
  /// group_size == 1).
  elastic::MembershipPolicy membership_policy;

  /// Throws std::invalid_argument for a plan neither stack can run.
  void validate() const;
  /// The control events this plan schedules (elastic::plan_control_events):
  /// each stack's journal is the part of it the run executed.
  [[nodiscard]] std::vector<fault::ControlEvent> planned_journal() const;
  /// Replica `replica` of shard `shard` is physical server
  /// shard * smb_replicas + replica; fault plans target physical indices.
  [[nodiscard]] int physical_server(int shard, int replica) const {
    return shard * smb_replicas + replica;
  }
};

}  // namespace shmcaffe::core
