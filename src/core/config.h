// Shared configuration of the functional distributed-training experiments
// (ShmCaffe and the baseline platforms).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/run_plan.h"
#include "data/synth_dataset.h"
#include "dl/models.h"
#include "dl/solver.h"
#include "fault/journal.h"
#include "recovery/checkpoint.h"

namespace shmcaffe::core {

/// How workers align their termination (§III-E).
enum class TerminationCriterion {
  kMasterFinishes,      ///< everyone stops when the master reaches its target
  kFirstFinisher,       ///< everyone stops when any worker reaches its target
  kAverageIterations,   ///< stop when the mean iteration count reaches the target
};

/// The functional trainers' options: the run plan both ShmCaffe stacks
/// share (core/run_plan.h) plus the training setup only a functional run
/// has.
struct DistTrainOptions : RunPlan {
  int batch_size = 32;
  int epochs = 6;  ///< data-parallel epochs over the whole training set

  std::string model_family = "mini_inception";
  dl::ModelInputSpec input;
  data::SynthDatasetOptions train_data;
  data::SynthDatasetOptions test_data;

  dl::SolverOptions solver;
  /// ShmCaffe hyper-parameter (§III-A): the paper's default.
  double moving_rate = 0.2;

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

  /// A worker whose heartbeat is older than this is declared dead and
  /// excluded from termination and pacing (graceful degradation).  Must
  /// exceed the worst-case gap between a live worker's reports — an
  /// iteration plus any injected stall.  <= 0 disables liveness sweeping
  /// (a dead worker then hangs min/mean termination, the pre-fault
  /// behaviour).
  double heartbeat_timeout_seconds = 2.0;

  /// Crash-consistent checkpointing + resume; disabled unless a directory
  /// is set.
  recovery::CheckpointConfig checkpoint;

  DistTrainOptions() {
    workers = 4;
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

/// The iteration budget every functional trainer derives from its options:
/// an epoch is one pass over the training set, split across the workers.
struct IterationTargets {
  std::int64_t per_worker_per_epoch = 1;
  std::int64_t per_worker = 1;  ///< the run's per-worker iteration target
  int lr_step = 1;              ///< the step LR policy's step: 4 epochs
};

[[nodiscard]] inline IterationTargets iteration_targets(const DistTrainOptions& options) {
  const std::int64_t per_epoch_total = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(options.train_data.size) / options.batch_size);
  IterationTargets targets;
  targets.per_worker_per_epoch = std::max<std::int64_t>(1, per_epoch_total / options.workers);
  targets.per_worker = targets.per_worker_per_epoch * options.epochs;
  targets.lr_step = std::max<int>(1, static_cast<int>(targets.per_worker_per_epoch) * 4);
  return targets;
}

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

/// A functional run's outcome: the control report both stacks share
/// (fault::ControlReport, comparable with the simulated twin's
/// cluster::PlatformTiming) plus what only a functional run measures.
struct TrainResult : fault::ControlReport {
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
  /// Checkpoints written during the run, and the iteration sum restored
  /// from a checkpoint at start (0 for a fresh run).
  std::int64_t checkpoints_taken = 0;
  std::int64_t resumed_iterations = 0;
  /// Checkpoint rollbacks forced by unrepairable segments.
  std::int64_t integrity_rollbacks = 0;
  double wall_seconds = 0.0;
};

}  // namespace shmcaffe::core
