// Shared configuration of the functional distributed-training experiments
// (ShmCaffe and the baseline platforms).
#pragma once

#include <cstdint>
#include <string>

#include "data/synth_dataset.h"
#include "dl/models.h"
#include "dl/solver.h"
#include "elastic/membership.h"
#include "fault/journal.h"
#include "recovery/checkpoint.h"
#include "recovery/integrity.h"
#include "recovery/schedule.h"

namespace shmcaffe::fault {
class FaultInjector;
}  // namespace shmcaffe::fault

namespace shmcaffe::core {

/// How workers align their termination (§III-E).
enum class TerminationCriterion {
  kMasterFinishes,      ///< everyone stops when the master reaches its target
  kFirstFinisher,       ///< everyone stops when any worker reaches its target
  kAverageIterations,   ///< stop when the mean iteration count reaches the target
};

struct DistTrainOptions {
  int workers = 4;
  /// Workers per node group for hybrid SGD; 1 means every worker is its own
  /// group (pure SEASGD).
  int group_size = 1;
  int batch_size = 32;
  int epochs = 6;  ///< data-parallel epochs over the whole training set

  std::string model_family = "mini_inception";
  dl::ModelInputSpec input;
  data::SynthDatasetOptions train_data;
  data::SynthDatasetOptions test_data;

  dl::SolverOptions solver;
  /// ShmCaffe hyper-parameters (§III-A): the paper's defaults.
  double moving_rate = 0.2;
  int update_interval = 1;
  /// Number of SMB servers sharding the global buffer (the paper's future
  /// work §V); 1 = the paper's evaluated configuration.
  int smb_servers = 1;
  /// Replicas per SMB shard.  1 = the paper's single passive server (no
  /// redundancy); >= 2 wraps each shard in a ReplicatedSmb ensemble that
  /// mirrors mutations and fails over when the primary fail-stops.
  int smb_replicas = 1;

  TerminationCriterion termination = TerminationCriterion::kAverageIterations;
  /// Bound on how many iterations a worker may run ahead of the slowest one
  /// (enforced through the shared progress board).  The paper's workers are
  /// identical GPUs that naturally stay within ~1 iteration of each other;
  /// on an oversubscribed CPU the OS scheduler would otherwise let one
  /// thread race dozens of iterations ahead, producing staleness the real
  /// system never sees.  0 disables the bound (free-running threads).
  int max_iteration_skew = 4;
  std::uint64_t seed = 0x5eedc0de;
  /// Prefetch queue depth (the paper prefetches 10 minibatches).
  std::size_t prefetch_depth = 4;

  /// Optional fault injection (crashes, stalls, SMB freezes); not owned,
  /// must outlive the run.  nullptr = fault-free.
  const fault::FaultInjector* faults = nullptr;
  /// A worker whose heartbeat is older than this is declared dead and
  /// excluded from termination and pacing (graceful degradation).  Must
  /// exceed the worst-case gap between a live worker's reports — an
  /// iteration plus any injected stall.  <= 0 disables liveness sweeping
  /// (a dead worker then hangs min/mean termination, the pre-fault
  /// behaviour).
  double heartbeat_timeout_seconds = 2.0;

  /// What the run does about injected failures (failover / re-admission).
  /// Defaults preserve the degrade-only behaviour.
  recovery::RecoveryPolicy recovery;
  /// Crash-consistent checkpointing + resume; disabled unless a directory
  /// is set.
  recovery::CheckpointConfig checkpoint;
  /// Data-integrity policy: segment checksums, verification, read-repair,
  /// scrubbing.  Defaults keep the checksum-free pre-integrity behaviour.
  recovery::IntegrityPolicy integrity;

  /// Optional elastic-membership plan (cold joins and voluntary drains at
  /// planned iterations); not owned, must outlive the run.  nullptr = the
  /// fixed-membership behaviour.  Requires group_size == 1: elastic workers
  /// run pure SEASGD (a hybrid group cannot shrink mid-collective).
  const elastic::MembershipPlan* membership = nullptr;
  /// Straggler detection/quarantine policy; the detector runs only when
  /// membership_policy.straggler_detection is set (which also requires
  /// group_size == 1).
  elastic::MembershipPolicy membership_policy;

  DistTrainOptions() {
    train_data.size = 2048;
    test_data.size = 512;
    test_data.seed = 0x7e57;
    solver.base_lr = 0.05;
    solver.momentum = 0.9;
    solver.lr_policy = dl::LrPolicy::kStep;
    solver.gamma = 0.1;
    solver.step_size = 1 << 30;  // trainers overwrite with 4-epoch steps
  }
};

/// One point of a training curve (evaluated on the shared/global weights).
struct EpochMetrics {
  int epoch = 0;
  double test_loss = 0.0;
  double test_accuracy = 0.0;
};

/// Per-worker timing/throughput telemetry of a functional training run —
/// the software counterpart of the paper's per-iteration computation vs
/// communication breakdown.
struct WorkerStats {
  std::int64_t iterations = 0;
  std::int64_t exchanges = 0;        ///< SEASGD exchanges performed
  double train_seconds = 0.0;        ///< forward + backward + solver
  double exchange_seconds = 0.0;     ///< SEASGD exchange incl. T.A5 blocking
  double collective_seconds = 0.0;   ///< intra-group allreduce/broadcast
  double data_wait_seconds = 0.0;    ///< blocked on the prefetcher
};

/// How a worker's participation in a run ended.
enum class WorkerOutcome : std::uint8_t {
  kFinished = 0,    ///< completed training normally
  kCrashed = 1,     ///< fail-stopped by fault injection
  kFenced = 2,      ///< declared dead by survivors (missed heartbeats) and exited
  kDrained = 3,     ///< left the run voluntarily at its planned drain point
  kEvicted = 4,     ///< removed by the straggler detector (repeated violations)
  kNeverJoined = 5, ///< a reserved join slot whose worker never joined
};

struct TrainResult {
  std::vector<EpochMetrics> curve;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::vector<std::int64_t> iterations_per_worker;
  std::vector<WorkerStats> worker_stats;
  /// Per-worker outcome; the curve reflects only kFinished workers' last
  /// contributions once their peers dropped out.
  std::vector<WorkerOutcome> worker_outcomes;
  /// Workers that did not finish (crashed or fenced), ascending.
  std::vector<int> dead_workers;
  /// Workers whose slot was re-admitted mid-run (respawned replacement or
  /// recovered fenced worker), ascending.  A worker can appear in both
  /// lists: its first life died, its slot finished under a new incarnation.
  std::vector<int> recovered_workers;
  /// SMB primary failovers executed across all shard ensembles.
  std::int64_t smb_failovers = 0;
  /// Checkpoints written during the run, and the iteration sum restored
  /// from a checkpoint at start (0 for a fresh run).
  std::int64_t checkpoints_taken = 0;
  std::int64_t resumed_iterations = 0;
  /// Elastic membership: workers that cold-joined / voluntarily drained
  /// mid-run, ascending; shard-map rebalances executed; straggler
  /// quarantine demotions observed.
  std::vector<int> joined_workers;
  std::vector<int> drained_workers;
  std::int64_t rebalances = 0;
  std::int64_t quarantine_events = 0;
  /// Data integrity: distinct corruption markers caught by checksum
  /// verification, replica copies rewritten by read-repair, scrub passes
  /// completed, and checkpoint rollbacks forced by unrepairable segments.
  std::int64_t corruptions_detected = 0;
  std::int64_t integrity_repairs = 0;
  std::int64_t scrub_passes = 0;
  std::int64_t integrity_rollbacks = 0;
  /// The planned control events (elastic::plan_control_events) this run
  /// executed, in planned order (fault/journal.h); comparable with the
  /// simulated stack's PlatformTiming::journal.
  std::vector<fault::ControlEvent> journal;
  double wall_seconds = 0.0;
};

}  // namespace shmcaffe::core
