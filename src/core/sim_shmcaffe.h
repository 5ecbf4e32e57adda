// Timed ShmCaffe model (ShmCaffe-A and ShmCaffe-H) over the simulated SMB.
//
// One simulated process per worker *group* (a synchronous group behaves as a
// single super-worker: its members march in lockstep, so only the group's
// aggregate timing matters).  Each group iteration replays Fig. 6:
//
//   [block until previous increment flushed]            -> counted as comm
//   T1  read W_g from the SMB server (a copy over the   -> comm
//       fabric: the paper's memory server is remote)
//   T2  update local weight (P bytes at GPU rate)       -> comm
//   T3  wake the update thread, which overlaps:
//         T.A1 write dW to the group's RSM segment
//         T.A2-4 exclusive server-side accumulate
//   T4+T5  compute (max over the group's members' jittered times)  -> comp
//   [hybrid only] intra-node ncclAllReduce + root broadcast        -> comm
//
// update_interval > 1 skips the exchange on non-sharing iterations.
#pragma once

#include "cluster/jitter.h"
#include "cluster/model_profiles.h"
#include "cluster/platform_result.h"
#include "elastic/membership.h"
#include "recovery/integrity.h"
#include "recovery/schedule.h"

namespace shmcaffe::fault {
class FaultInjector;
}  // namespace shmcaffe::fault

namespace shmcaffe::core {

struct SimShmCaffeOptions {
  cluster::ModelKind model = cluster::ModelKind::kInceptionV1;
  int workers = 8;               ///< total GPUs
  int group_size = 1;            ///< S per group; 1 = pure SEASGD (ShmCaffe-A)
  int update_interval = 1;
  /// Number of SMB servers sharding the global weight buffer — the paper's
  /// stated future work ("improve the performance of the SMB framework by
  /// using multiple SMB servers").  Each server holds param_bytes/N of W_g
  /// and dW_x; a worker exchanges with all servers in parallel.
  int smb_servers = 1;
  /// Replicas per SMB shard (timing model of the recovery layer): replica r
  /// of shard s is physical server s * smb_replicas + r, matching the
  /// functional trainer's topology so fault plans target the same indices.
  int smb_replicas = 1;
  /// What the modelled run does about injected failures; the same policy
  /// the functional trainer takes, so both stacks derive the identical
  /// recovery schedule from one FaultPlan.
  recovery::RecoveryPolicy recovery;
  /// Data-integrity policy (checksums, verification, read-repair, scrub).
  /// The same policy the functional trainer takes, so both stacks derive
  /// the identical integrity schedule from one FaultPlan.  Read-repair
  /// needs smb_replicas >= 2 (a lone copy has no peer to vote against).
  recovery::IntegrityPolicy integrity;
  std::int64_t iterations = 200; ///< per group (measurement window)
  /// Fig. 6's design: the weight-increment write and global accumulate run
  /// on a separate update thread, hidden behind computation.  false = the
  /// ablation where the main thread performs them inline.
  bool overlap_update = true;
  cluster::TestbedSpec testbed;
  cluster::ComputeJitter jitter;
  std::uint64_t seed = 0x51;
  /// Optional fault injection; not owned, must outlive the call.  Worker
  /// crash/stall events are keyed to group roots (worker g*group_size — a
  /// synchronous group fails or stalls as a unit), link windows map onto the
  /// fabric's links by index, and datagram drops onto transfer sequence
  /// numbers.  nullptr = fault-free.
  const fault::FaultInjector* faults = nullptr;
  /// Elastic membership plan (cold joins above `workers`, voluntary drains);
  /// not owned, must outlive the call.  The same plan the functional trainer
  /// consumes — both stacks derive the identical membership schedule and
  /// fingerprint from it.  Requires group_size == 1 when set.
  const elastic::MembershipPlan* membership = nullptr;
  /// Straggler-quarantine policy; membership_policy.straggler_detection
  /// also requires group_size == 1.
  elastic::MembershipPolicy membership_policy;
  /// Static per-worker compute/NIC heterogeneity: the planted straggler
  /// population the quarantine policy is exercised against at scale.
  cluster::HeterogeneityProfile heterogeneity;
};

/// Runs the timed model and returns the per-iteration breakdown.
cluster::PlatformTiming simulate_shmcaffe(const SimShmCaffeOptions& options);

}  // namespace shmcaffe::core
