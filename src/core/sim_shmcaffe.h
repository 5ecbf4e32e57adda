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
#include "core/run_plan.h"

namespace shmcaffe::core {

/// The twin's options: the run plan both ShmCaffe stacks share
/// (core/run_plan.h) plus the timing model's own settings.  The plan's
/// link windows map onto the fabric's links by index, and its datagram
/// drops onto transfer sequence numbers.
struct SimShmCaffeOptions : RunPlan {
  SimShmCaffeOptions() { workers = 8; }
  /// The twin of a functional run: its plan, with the model's defaults.
  explicit SimShmCaffeOptions(const RunPlan& plan) : RunPlan(plan) {}

  cluster::ModelKind model = cluster::ModelKind::kInceptionV1;
  std::int64_t iterations = 200; ///< per group (measurement window)
  /// Fig. 6's design: the weight-increment write and global accumulate run
  /// on a separate update thread, hidden behind computation.  false = the
  /// ablation where the main thread performs them inline.
  bool overlap_update = true;
  cluster::TestbedSpec testbed;
  cluster::ComputeJitter jitter;
  std::uint64_t seed = 0x51;
  /// Static per-worker compute/NIC heterogeneity: the planted straggler
  /// population the quarantine policy is exercised against at scale.
  cluster::HeterogeneityProfile heterogeneity;
};

/// Runs the timed model and returns the per-iteration breakdown.
cluster::PlatformTiming simulate_shmcaffe(const SimShmCaffeOptions& options);

}  // namespace shmcaffe::core
