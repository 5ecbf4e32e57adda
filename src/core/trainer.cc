#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coll/nccl.h"
#include "common/parallel.h"
#include "core/evaluate.h"
#include "core/exchange.h"
#include "core/progress_board.h"
#include "core/sharded_buffer.h"
#include "data/loader.h"
#include "elastic/membership.h"
#include "fault/injector.h"
#include "fault/journal.h"
#include "minimpi/minimpi.h"
#include "recovery/checkpoint.h"
#include "recovery/replicated_smb.h"
#include "smb/server.h"

namespace shmcaffe::core {
namespace {

using Clock = std::chrono::steady_clock;

constexpr smb::ShmKey kProgressKeyOffset = 1'000'000;
/// How long a parked worker (skew pacing, a held stop) sleeps between
/// heartbeats.
constexpr auto kParkPoll = std::chrono::microseconds(50);

/// What a run's workers share with its supervisor: the topology, the
/// membership and checkpoint services, the counters and per-slot results,
/// and the supervisor's wake-up state.
struct Run {
  Run(const DistTrainOptions& options, std::size_t param_count);
  /// Flips bits of W_g on physical server `server` (a wall-clock
  /// kSegmentCorruption).  A replicated shard takes the flip through its
  /// ensemble, so it never lands inside a read-repair vote.
  std::size_t corrupt_global(int server, std::uint64_t marker, int bit_flips);

  const DistTrainOptions& options;
  const data::SynthImageDataset train_set;
  /// Physical server topology: smb_servers shards × smb_replicas replicas,
  /// at the indices RunPlan::physical_server gives them.  Fault plans
  /// target physical indices.  With replication each shard is wrapped
  /// in a ReplicatedSmb ensemble.  Workers only ever see `services`, one
  /// per shard (the raw SmbServer or the shard's ensemble), so the Fig. 6
  /// protocol is identical either way.
  std::vector<std::unique_ptr<smb::SmbServer>> servers;
  std::vector<std::unique_ptr<recovery::ReplicatedSmb>> ensembles;
  std::vector<smb::SmbService*> services;
  minimpi::Context mpi;
  std::vector<std::unique_ptr<coll::DeviceGroup>> groups;
  const smb::ShmKey base_key;
  /// Worker slots including reserved join capacity (== workers when the run
  /// is not elastic); final_iterations/worker_stats/outcomes are this long.
  const int capacity;
  const IterationTargets targets;
  std::optional<elastic::MembershipService> membership;  // elastic runs only
  std::optional<recovery::CheckpointStore> checkpoint_store;
  std::optional<recovery::TrainCheckpoint> resume;  // validated
  std::int64_t resumed_total = 0;  // iterations the resumed checkpoint covers
  std::atomic<std::int64_t> total_iterations{0};
  std::atomic<std::int64_t> checkpoints_taken{0};
  std::atomic<std::uint64_t> checkpoint_sequence{0};
  std::atomic<std::int64_t> integrity_rollbacks{0};
  std::vector<std::int64_t> final_iterations;  // one slot per worker
  std::vector<WorkerStats> worker_stats;       // one slot per worker
  std::vector<WorkerOutcome> outcomes;         // one slot per worker
  // --- supervisor wake-ups -------------------------------------------------
  /// Reports, life exits and worker 0's first W_g write wake the supervisor
  /// (train_shmcaffe's calling thread) through signal_cv.
  std::mutex signal_mutex;
  std::condition_variable signal_cv;
  std::uint64_t signals = 0;  // under signal_mutex: bumped by every wake-up
  bool global_ready = false;  // under signal_mutex: W_g holds its initial weights
  std::vector<int> exited;    // under signal_mutex: ended lives not yet reaped
  /// The run starts with its stop held (server faults are planned).
  bool hold_at_start = false;
};

std::size_t Run::corrupt_global(int server, std::uint64_t marker, int bit_flips) {
  if (ensembles.empty()) {
    return servers[static_cast<std::size_t>(server)]->corrupt_floats(base_key, marker, bit_flips);
  }
  const int replicas = options.smb_replicas;
  return ensembles[static_cast<std::size_t>(server / replicas)]->inject_corruption(
      static_cast<std::size_t>(server % replicas), base_key, marker, bit_flips);
}

Run::Run(const DistTrainOptions& options, std::size_t param_count)
    : options(options),
      train_set(options.train_data),
      mpi(options.workers),
      base_key((options.seed | 1) & 0x7fffffff),
      capacity(options.membership != nullptr ? options.membership->capacity(options.workers)
                                             : options.workers),
      targets(iteration_targets(options)) {
  smb::SmbServerOptions server_options;
  server_options.integrity.verify_on_read = options.integrity.verify_on_read;
  for (int n = 0; n < options.smb_servers * options.smb_replicas; ++n) {
    servers.push_back(std::make_unique<smb::SmbServer>(server_options));
  }
  if (options.smb_replicas > 1) {
    for (int s = 0; s < options.smb_servers; ++s) {
      std::vector<smb::SmbServer*> members;
      for (int r = 0; r < options.smb_replicas; ++r) {
        members.push_back(servers[static_cast<std::size_t>(options.physical_server(s, r))].get());
      }
      ensembles.push_back(std::make_unique<recovery::ReplicatedSmb>(
          std::move(members), options.integrity.read_repair));
      services.push_back(ensembles.back().get());
    }
  } else {
    for (const auto& server : servers) services.push_back(server.get());
  }
  for (int g = 0; g < options.workers / options.group_size; ++g) {
    groups.push_back(std::make_unique<coll::DeviceGroup>(options.group_size));
  }
  final_iterations.assign(static_cast<std::size_t>(capacity), 0);
  worker_stats.assign(static_cast<std::size_t>(capacity), WorkerStats{});
  outcomes.assign(static_cast<std::size_t>(capacity), WorkerOutcome::kFinished);
  for (int w = options.workers; w < capacity; ++w) {
    // A reserved slot whose join never fires stays kNeverJoined.
    outcomes[static_cast<std::size_t>(w)] = WorkerOutcome::kNeverJoined;
  }
  if (options.membership != nullptr || options.membership_policy.straggler_detection) {
    membership.emplace(options.workers, capacity, options.smb_servers);
  }

  // Checkpoint store + resume validation.  A checkpoint from a different
  // run (seed, worker count or model mismatch) is ignored, not an error —
  // the run simply starts fresh.
  if (!options.checkpoint.directory.empty()) {
    checkpoint_store.emplace(options.checkpoint.directory);
    if (options.checkpoint.resume) resume = checkpoint_store->load_latest();
    if (resume.has_value() &&
        (resume->seed != options.seed ||
         resume->worker_iterations.size() != static_cast<std::size_t>(options.workers) ||
         resume->global_weights.size() != param_count)) {
      resume.reset();
    }
    if (resume.has_value()) {
      checkpoint_sequence.store(resume->sequence, std::memory_order_relaxed);
      for (const std::int64_t done : resume->worker_iterations) resumed_total += done;
      total_iterations.store(resumed_total, std::memory_order_relaxed);
    }
  }
}

/// Applies `update` to the supervisor's wake-up state and wakes it.
template <typename Update>
void signal_supervisor(Run& run, Update&& update) {
  {
    std::scoped_lock lock(run.signal_mutex);
    update();
    ++run.signals;
  }
  run.signal_cv.notify_one();
}

/// Adds the elapsed seconds since `from` to `sink` and resets `from`.
class SegmentTimer {
 public:
  void charge(double& sink) {
    const Clock::time_point now = Clock::now();
    sink += std::chrono::duration<double>(now - mark_).count();
    mark_ = now;
  }

 private:
  Clock::time_point mark_ = Clock::now();
};

/// Which life of a worker slot this call runs.
enum class WorkerLife {
  kInitial,   ///< an original rank, from the start of the run
  kRejoin,    ///< a replacement life for a crashed rank (recovery)
  kColdJoin,  ///< an elastic cold join into a reserved capacity slot
};

// --- the worker life -------------------------------------------------------

/// One life of a worker slot.  The constructor is the Fig. 2 initialisation;
/// run() is the step loop of the Fig. 6 main thread with its pacing, then
/// the life's outcome and shutdown.  A group root also builds the Fig. 6
/// exchange and starts the update thread that serves it.
///
/// kRejoin runs a replacement life for a crashed worker slot: it attaches
/// to the existing segments by SHM key (the Fig. 2 slave path) and adopts
/// the current W_g.  The supervisor has already re-admitted the slot on the
/// progress board under a fresh `incarnation`, so anything the previous
/// life left behind is fenced.  kColdJoin is the elastic variant: the slot
/// never lived before; the supervisor admitted it onto the board (fresh
/// incarnation, never a dead rank's slot) and the membership service has
/// rebalanced the shard map for it.  Both late lives skip the MPI
/// collectives — their peers ran them long ago.
class Worker {
 public:
  Worker(Run& run, int worker, WorkerLife life, std::int64_t incarnation);
  Worker(const Worker&) = delete;  // the update thread holds its address
  Worker& operator=(const Worker&) = delete;
  void run();

 private:
  [[nodiscard]] std::size_t home_shard() const;
  void adopt_global();
  std::optional<WorkerOutcome> train();
  bool step(bool quarantined);
  void exchange();
  template <typename Access>
  void or_roll_back(Access access);
  void integrity_rollback();
  void save_checkpoint();
  ProgressBoard::Vote cast_vote();
  WorkerOutcome recorded_outcome() const;

  Run& run_;
  const DistTrainOptions& options_;
  const int worker_;
  const std::int64_t incarnation_;
  const bool late_;  // a rejoin or a cold join
  const int local_rank_;
  const bool is_root_;
  const bool is_async_;
  coll::Communicator comm_;
  dl::Net net_;
  const std::size_t param_count_;
  /// A resumed run restores worker cursors from the checkpoint; replacement
  /// and cold-join lives start their own count from zero (their board slot
  /// was reset or freshly admitted).
  const recovery::TrainCheckpoint* const resume_;
  const std::int64_t start_iteration_;
  std::int64_t iteration_;
  WorkerStats& stats_;
  /// Fault injection: crashes fell whole groups (a dead node takes all its
  /// GPUs), keyed on the group root's worker index so every member of a
  /// hybrid group breaks at the same iteration, before any collective could
  /// deadlock on a missing peer.  Stalls are per individual worker.  A
  /// replacement life does not replay its predecessor's faults.
  const fault::FaultInjector* const faults_;
  /// The planned iteration at which this worker leaves voluntarily (-1:
  /// never).  A drain applies to the slot's current life; a replacement life
  /// honours it too.
  const std::int64_t drain_at_;
  /// Periodic crash-consistent checkpoints (the owner worker only).
  const bool checkpointing_;
  std::vector<float> vote_;

  ShardedBuffer global_;
  std::unique_ptr<ProgressBoard> board_;
  ShardedBuffer increments_;  // group roots only
  std::optional<dl::SgdSolver> solver_;
  std::optional<data::Prefetcher> prefetcher_;
  std::optional<Exchange> exchange_;  // group roots only
};

Worker::Worker(Run& run, int worker, WorkerLife life, std::int64_t incarnation)
    : run_(run),
      options_(run.options),
      worker_(worker),
      incarnation_(incarnation),
      late_(life != WorkerLife::kInitial),
      local_rank_(worker % options_.group_size),
      is_root_(local_rank_ == 0),
      is_async_(options_.group_size == 1),
      net_(dl::make_model(options_.model_family, options_.input)),
      param_count_(net_.param_count()),
      resume_(!late_ && run.resume.has_value() ? &*run.resume : nullptr),
      start_iteration_(resume_ != nullptr
                           ? resume_->worker_iterations[static_cast<std::size_t>(worker)]
                           : 0),
      iteration_(start_iteration_),
      stats_(run.worker_stats[static_cast<std::size_t>(worker)]),
      faults_(life == WorkerLife::kRejoin ? nullptr : options_.faults),
      drain_at_(options_.membership != nullptr ? options_.membership->drain_iteration(worker)
                                               : -1),
      checkpointing_(run.checkpoint_store.has_value() && worker == 0 &&
                     options_.checkpoint.interval_iterations > 0),
      vote_(1) {
  // Cold-join slots sit beyond the MPI world and the device groups (both
  // are sized for the initial ranks); elastic runs are pure SEASGD
  // (group_size == 1, validated by RunPlan::validate), so a joiner never
  // touches either handle.
  minimpi::Endpoint mpi;
  if (life != WorkerLife::kColdJoin) {
    mpi = run.mpi.endpoint(worker);
    comm_ = run.groups[static_cast<std::size_t>(worker / options_.group_size)]->communicator(
        local_rank_);
  }

  // --- Fig. 2 initialisation: the master creates the global-weight segment
  // and the progress board, then broadcasts the SHM key over MPI; the
  // slaves attach by that key.  A late life skips the collectives (its
  // peers ran them long ago) and goes straight to the slave attach path.
  smb::ShmKey shm_key = run.base_key;
  smb::SmbService& board_server = *run.services.front();
  const bool master = worker == 0 && !late_;
  if (master) {
    global_ = ShardedBuffer::create(run.services, shm_key, param_count_);
    board_ = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                             options_.workers, /*create=*/true, run.capacity);
    // Arm the supervisor's controls before any peer can report.
    board_->hold_stop(run.hold_at_start);
    if (options_.membership_policy.straggler_detection) {
      board_->watch_stragglers(options_.membership_policy);
    }
    if (resume_ != nullptr) {
      global_.write(resume_->global_weights);  // W_g exactly as checkpointed
    } else {
      common::Rng init_rng(options_.seed);
      net_.init_params(init_rng);
      global_.write(net_.param_values());
    }
    signal_supervisor(run, [&run] { run.global_ready = true; });
  }
  if (!late_) mpi.broadcast_value(0, shm_key);
  if (!master) {
    global_ = ShardedBuffer::attach(run.services, shm_key, param_count_);
    board_ = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                             options_.workers, /*create=*/false);
  }
  board_->heartbeat(worker, incarnation);  // arm liveness before the first iteration
  // Restore this worker's public iteration count so kAverageIterations
  // accounting continues where the interrupted run left off.
  if (start_iteration_ > 0) board_->report(worker, start_iteration_, incarnation);
  // Every group root owns a private weight-increment buffer (Fig. 5: the
  // dW_x buffers are not shared among other workers).  A replacement life
  // re-attaches its crashed predecessor's orphaned buffer.
  if (is_root_) {
    const smb::ShmKey delta_key = shm_key + 1 + static_cast<smb::ShmKey>(worker);
    if (life == WorkerLife::kRejoin) {
      try {
        increments_ = ShardedBuffer::attach(run.services, delta_key, param_count_);
      } catch (const smb::SmbNotFound&) {
        // the crashed life never created it
      }
    }
    if (!increments_.valid()) {
      increments_ = ShardedBuffer::create(run.services, delta_key, param_count_);
    }
  }
  if (!late_) mpi.barrier();
}

/// Elastic fan-out rotation: every multi-shard SMB access starts at this
/// worker's home shard (rebalanced by the membership service on every
/// join/drain/evict) so concurrent exchanges spread across the shard
/// ensembles instead of all serialising on shard 0.
std::size_t Worker::home_shard() const {
  return run_.membership.has_value()
             ? static_cast<std::size_t>(run_.membership->home_shard(worker_))
             : 0;
}

/// Everyone adopts the initial global weights before training, read
/// straight into the net's parameters; the resumed owner restores its exact
/// checkpointed parameters instead (they lag W_g by the elastic
/// difference).
void Worker::adopt_global() {
  const std::span<float> params = net_.param_values();
  try {
    global_.read(params, home_shard());
  } catch (const smb::SmbCorruption&) {
    // W_g is corrupt before this life's first read and nothing below us
    // could repair it.  Adopt freshly initialised parameters instead; the
    // first exchange surfaces the corruption again and rolls back properly.
    common::Rng init_rng(options_.seed);
    net_.init_params(init_rng);
  }
  if (resume_ != nullptr && worker_ == 0) {
    if (resume_->owner_params.size() != params.size()) {
      throw std::invalid_argument("checkpoint owner parameters do not match the model");
    }
    std::copy(resume_->owner_params.begin(), resume_->owner_params.end(), params.begin());
  }
}

void Worker::run() {
  adopt_global();

  dl::SolverOptions solver_options = options_.solver;
  solver_options.step_size = run_.targets.lr_step;
  solver_.emplace(net_, solver_options);
  if (resume_ != nullptr) {
    solver_->set_iteration(static_cast<int>(
        worker_ == 0 ? resume_->owner_solver_iteration : start_iteration_));
    if (worker_ == 0) solver_->set_momentum_state(resume_->owner_momentum);
  }

  // Data shards are cut over the full slot capacity so a cold joiner gets a
  // shard of its own (capacity == workers in a fixed-membership run, so the
  // classic sharding is unchanged).
  data::ShardedLoader loader(run_.train_set, worker_, run_.capacity, options_.batch_size,
                             options_.seed ^ 0xda7aULL);
  if (start_iteration_ > 0) loader.skip_batches(start_iteration_);
  prefetcher_.emplace(std::move(loader), options_.prefetch_depth);

  // --- Fig. 6 update thread (group roots only).
  std::thread update_thread;
  if (is_root_) {
    exchange_.emplace(global_, increments_, [this] { return home_shard(); },
                      static_cast<float>(options_.moving_rate),
                      options_.integrity.verify_on_read);
    update_thread = std::thread([this] { exchange_->serve(); });
  }

  const std::optional<WorkerOutcome> ended = train();
  run_.final_iterations[static_cast<std::size_t>(worker_)] = iteration_;
  stats_.iterations = iteration_;
  const WorkerOutcome outcome = ended.has_value() ? *ended : recorded_outcome();
  run_.outcomes[static_cast<std::size_t>(worker_)] = outcome;

  if (exchange_.has_value()) {
    exchange_->stop();
    update_thread.join();  // thread hygiene even on the crash path
  }
  if (outcome == WorkerOutcome::kCrashed) return;  // fail-stop: nothing is released
  try {
    if (outcome == WorkerOutcome::kFinished) board_->mark_finished(worker_);
    if (is_root_) increments_.release();
    board_->release();
    global_.release();
  } catch (const smb::SmbError&) {
    // Releasing against a fail-stopped service: nothing left to clean up.
  }
}

/// The step loop.  Returns the life's outcome when the loop decides it (a
/// crash, a drain, an eviction), or nullopt when the board's record of the
/// slot decides it (a stop vote, or fenced while stalled).
std::optional<WorkerOutcome> Worker::train() {
  try {
    for (;;) {
      if (faults_ != nullptr) {
        if (faults_->crashes_at(worker_ - local_rank_, iteration_)) {
          // Fail-stop: exit without reporting, marking, or releasing; the
          // supervisor fences the slot when it reaps this life.
          return WorkerOutcome::kCrashed;
        }
        const double stall = faults_->stall_seconds(worker_, iteration_);
        if (stall > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall));
        }
      }
      // Voluntary drain: flush the pending increment so the last
      // contribution lands, register the departure (epoch bump + shard
      // rebalance), and leave cleanly.
      if (drain_at_ >= 0 && iteration_ >= drain_at_ && !board_->stop_raised()) {
        if (exchange_.has_value()) exchange_->drain();
        board_->mark_drained(worker_);
        if (run_.membership.has_value()) run_.membership->drain(worker_);
        return WorkerOutcome::kDrained;
      }
      // Fenced while stalled: dead is final for this life, so exit instead
      // of re-joining; an eviction by the straggler detector ends the same
      // way.  Async only — a hybrid member must keep lockstep with its
      // group (whose peers may already be blocked in a collective) and
      // exits through the root's stop vote instead.
      ProgressBoard::WorkerState state = ProgressBoard::WorkerState::kAlive;
      if (is_async_) {
        state = board_->state_of(worker_);
        if (state == ProgressBoard::WorkerState::kDead) return std::nullopt;
        if (state == ProgressBoard::WorkerState::kEvicted) return WorkerOutcome::kEvicted;
      }
      // Homogeneous-GPU pacing: do not run further ahead of the slowest
      // *live* worker than the configured skew (see DistTrainOptions).
      if (options_.max_iteration_skew > 0) {
        while (!board_->stop_raised() && !board_->is_dead(worker_) &&
               iteration_ - board_->min_iterations() >
                   static_cast<std::int64_t>(options_.max_iteration_skew)) {
          board_->heartbeat(worker_, incarnation_);
          std::this_thread::sleep_for(kParkPoll);
        }
      }
      // Quarantined: keep training toward readmission, but contribute
      // nothing — no SEASGD exchange until the supervisor readmits it.
      if (step(state == ProgressBoard::WorkerState::kQuarantined)) return std::nullopt;
    }
  } catch (const smb::SmbUnavailable&) {
    // The SMB backing this worker is permanently gone (no replica left to
    // fail over to): an infrastructure-induced fail-stop.
    return WorkerOutcome::kCrashed;
  } catch (const smb::SmbCorruption&) {
    // Corruption surfaced outside a rollback-capable site (no checkpoint,
    // no clean replica): data loss, treated like a fail-stop.
    return WorkerOutcome::kCrashed;
  }
}

/// One iteration, from the exchange at its start to the termination vote
/// at its end.  Returns true when the group votes to stop.
bool Worker::step(bool quarantined) {
  const bool sharing = iteration_ % options_.update_interval == 0;
  SegmentTimer timer;

  // ShmCaffe-A reads the global weight at the start of every iteration;
  // the paper deliberately does not hide T_rgw behind computation, to
  // avoid training on stale parameters.
  if (is_async_ && sharing && !quarantined) {
    or_roll_back([this] { exchange(); });
    timer.charge(stats_.exchange_seconds);
  }

  data::Batch batch = prefetcher_->next();
  timer.charge(stats_.data_wait_seconds);
  net_.input("data") = std::move(batch.data);
  net_.input("label") = std::move(batch.labels);
  (void)net_.forward(/*train=*/true);
  net_.backward();
  timer.charge(stats_.train_seconds);

  if (options_.group_size > 1) {
    // Hybrid: intra-group synchronous SGD (ncclAllReduce of gradients), in
    // place on the net's gradient store.
    comm_.all_reduce_mean(net_.param_grads());
    timer.charge(stats_.collective_seconds);
  }
  solver_->step();  // eq. (2)
  timer.charge(stats_.train_seconds);

  if (!is_async_ && sharing) {
    // Hybrid §III-D: the root exchanges with the SMB server, then
    // broadcasts the refreshed weights to its group, store to store.
    if (is_root_) {
      or_roll_back([this] { exchange(); });
      timer.charge(stats_.exchange_seconds);
    }
    comm_.broadcast(0, net_.param_values());
    timer.charge(stats_.collective_seconds);
  }

  ++iteration_;
  run_.total_iterations.fetch_add(1, std::memory_order_relaxed);

  if (checkpointing_ && iteration_ % options_.checkpoint.interval_iterations == 0) {
    or_roll_back([this] { save_checkpoint(); });
  }

  // The report wakes the supervisor.  A held stop (the criterion is met
  // but a planned transition is outstanding) parks the group,
  // heartbeating, until the root votes otherwise.
  ProgressBoard::Vote decision = cast_vote();
  signal_supervisor(run_, [] {});
  while (decision == ProgressBoard::Vote::kHold) {
    std::this_thread::sleep_for(kParkPoll);
    decision = cast_vote();
  }
  return decision == ProgressBoard::Vote::kStop;
}

void Worker::exchange() {
  ++stats_.exchanges;
  exchange_->exchange(net_.param_values());
}

/// Runs an access to W_g (an exchange or a checkpoint).  Unrepairable
/// corruption it surfaces degrades to a rollback instead of aborting.
template <typename Access>
void Worker::or_roll_back(Access access) {
  try {
    access();
  } catch (const smb::SmbCorruption&) {
    integrity_rollback();
  }
}

/// Restores W_g from the newest valid checkpoint — or, without one, from
/// this worker's own parameters (consistent, if older) — and continues; the
/// full rewrite refreshes the segment checksums, healing every replica.
void Worker::integrity_rollback() {
  run_.integrity_rollbacks.fetch_add(1, std::memory_order_relaxed);
  std::optional<recovery::TrainCheckpoint> rollback;
  if (run_.checkpoint_store.has_value()) {
    try {
      rollback = run_.checkpoint_store->load_latest();
    } catch (const std::exception&) {
      // unreadable store: fall through to the local-parameter restore
    }
  }
  if (rollback.has_value() && rollback->global_weights.size() == param_count_) {
    global_.write(rollback->global_weights, home_shard());
  } else {
    global_.write(net_.param_values(), home_shard());
  }
}

/// A crash-consistent checkpoint: W_g read with no flush in flight, the
/// board counters and the owner's solver state, handed to the
/// double-buffered store.
void Worker::save_checkpoint() {
  recovery::TrainCheckpoint checkpoint;
  checkpoint.sequence = run_.checkpoint_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  checkpoint.seed = options_.seed;
  checkpoint.owner_solver_iteration = solver_->iteration();
  checkpoint.worker_iterations.resize(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    checkpoint.worker_iterations[static_cast<std::size_t>(w)] =
        w == worker_ ? iteration_ : board_->iterations_of(w);
  }
  checkpoint.global_weights.resize(param_count_);
  exchange_->read_global(checkpoint.global_weights);
  const std::span<const float> params = net_.param_values();
  checkpoint.owner_params.assign(params.begin(), params.end());
  checkpoint.owner_momentum = solver_->momentum_state();
  run_.checkpoint_store->save(checkpoint);
  run_.checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
  // Checkpoint windows double as scrub windows: walk the replica
  // ensembles while the update thread is quiesced, repairing any silent
  // corruption before it is ever read.
  if (options_.integrity.verify_on_read) {
    for (const auto& ensemble : run_.ensembles) ensemble->scrub();
  }
}

/// §III-E: aligned termination via the shared progress board.  The group
/// root votes and synchronous members follow its vote, so the group never
/// diverges; members report for themselves.
ProgressBoard::Vote Worker::cast_vote() {
  if (is_root_) {
    vote_[0] = static_cast<float>(board_->vote(options_.termination, worker_, iteration_,
                                               run_.targets.per_worker, incarnation_));
  } else {
    board_->report(worker_, iteration_, incarnation_);
  }
  if (options_.group_size > 1) comm_.broadcast(0, vote_);
  return static_cast<ProgressBoard::Vote>(static_cast<std::int64_t>(vote_[0]));
}

/// The outcome the board records for this slot: fenced or evicted by the
/// supervisor, or finished.
WorkerOutcome Worker::recorded_outcome() const {
  try {
    const ProgressBoard::WorkerState state = board_->state_of(worker_);
    if (state == ProgressBoard::WorkerState::kDead) return WorkerOutcome::kFenced;
    if (state == ProgressBoard::WorkerState::kEvicted) return WorkerOutcome::kEvicted;
    return WorkerOutcome::kFinished;
  } catch (const smb::SmbUnavailable&) {
    return WorkerOutcome::kCrashed;
  }
}

// --- the run supervisor ------------------------------------------------------

/// The run supervisor, train_shmcaffe's calling thread: the run's only
/// control-plane actor.  It starts and reaps every worker life, fires the
/// plan's server faults, sweeps heartbeats and stragglers, triggers planned
/// joins and re-admissions, and evaluates W_g at epoch boundaries.  In
/// between it blocks on run_.signal_cv: reports and life exits wake it, and
/// otherwise it sleeps until its next deadline (the next server fault, or
/// the earliest heartbeat or quarantine expiry).
class Supervisor {
 public:
  explicit Supervisor(const DistTrainOptions& options);
  TrainResult run();

 private:
  void start_life(int w, WorkerLife life, std::int64_t incarnation);
  void fire_due_faults(bool global_initialised);
  std::optional<Clock::time_point> control(const std::vector<int>& exited,
                                           bool global_initialised);
  void on_crash(int w);
  void catch_up_evals();
  void final_evaluation();
  TrainResult report();

  const DistTrainOptions& options_;
  const data::SynthImageDataset test_set_;
  dl::Net eval_net_;
  Run run_;
  const Clock::time_point wall_start_;
  /// The plan's server faults, in firing order.
  std::vector<fault::FaultEvent> server_faults_;
  /// The run's planned control events (recovery, integrity, membership);
  /// the executed journal is the part of this plan the run observes.
  std::vector<fault::ControlEvent> planned_;
  std::vector<char> respawn_;
  std::vector<elastic::MembershipEvent> joins_;
  /// The control events this run observes (fault/journal.h): corruptions as
  /// they fire, everything else once the run is over.
  std::vector<fault::ControlEvent> observed_;

  std::vector<std::thread> lives_;
  int running_ = 0;
  TrainResult result_;
  bool attached_ = false;
  std::optional<ProgressBoard> board_;  // attached with W_g once it is initialised
  ShardedBuffer global_;
  std::vector<char> recovered_;
  std::size_t next_fault_ = 0;
  std::size_t next_join_ = 0;
  bool held_ = false;
  /// Total iterations across all workers per epoch, and the next epoch the
  /// curve evaluates.
  std::int64_t per_epoch_total_ = 1;
  int next_epoch_ = 1;
};

Supervisor::Supervisor(const DistTrainOptions& options)
    : options_(options),
      test_set_(options.test_data),
      eval_net_(dl::make_model(options.model_family, options.input)),
      run_(options, eval_net_.param_count()),
      wall_start_(Clock::now()) {
  // The plan's server faults.  Torn writes key on a write ordinal, and
  // corruptions with an `iteration` on a pinned-read ordinal, not a time:
  // arm them on their server up front, before any worker writes or pins.
  if (options.faults != nullptr) {
    for (int n = 0; n < static_cast<int>(run_.servers.size()); ++n) {
      smb::SmbServer& server = *run_.servers[static_cast<std::size_t>(n)];
      for (const std::vector<fault::FaultEvent>& events :
           {options.faults->server_freezes(n), options.faults->server_fail_stops(n)}) {
        server_faults_.insert(server_faults_.end(), events.begin(), events.end());
      }
      for (const fault::FaultEvent& event : options.faults->segment_corruptions(n)) {
        if (event.iteration >= 1) {
          server.arm_pinned_corruption(static_cast<std::uint64_t>(event.iteration),
                                       event.sequence, static_cast<int>(event.severity));
        } else {
          server_faults_.push_back(event);
        }
      }
      for (const fault::FaultEvent& event : options.faults->torn_writes(n)) {
        server.arm_torn_write(event.sequence, event.severity);
      }
    }
    std::stable_sort(server_faults_.begin(), server_faults_.end(),
                     [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                       return a.start_seconds < b.start_seconds;
                     });
  }
  run_.hold_at_start = !server_faults_.empty();
  held_ = run_.hold_at_start;

  planned_ = options.planned_journal();
  respawn_.assign(static_cast<std::size_t>(options.workers), 0);
  for (const fault::ControlEvent& event : planned_) {
    if (event.action == fault::ControlAction::kWorkerReadmit && event.target >= 0 &&
        event.target < options.workers) {
      respawn_[static_cast<std::size_t>(event.target)] = 1;
    }
  }
  if (options.membership != nullptr) joins_ = options.membership->joins();

  lives_.resize(static_cast<std::size_t>(run_.capacity));
  recovered_.assign(static_cast<std::size_t>(options.workers), 0);
  // Evaluates W_g at every epoch-equivalent boundary (total iterations
  // across all workers) the run has crossed.  A resumed run's curve
  // continues after the epochs the interrupted run already covered.
  const std::int64_t total_target =
      run_.targets.per_worker * static_cast<std::int64_t>(options.workers);
  per_epoch_total_ = std::max<std::int64_t>(1, total_target / options.epochs);
  next_epoch_ = 1 + static_cast<int>(run_.resumed_total / per_epoch_total_);
}

void Supervisor::start_life(int w, WorkerLife life, std::int64_t incarnation) {
  lives_[static_cast<std::size_t>(w)] = std::thread([&run = run_, w, life, incarnation] {
    try {
      // Every life of a worker is a compute lane for as long as its thread
      // runs; the update thread and the evaluator are not (common/parallel.h).
      const common::parallel::Lane lane;
      Worker(run, w, life, incarnation).run();
    } catch (const smb::SmbError&) {
      // An initial life's peers wait for it in the MPI collectives.
      if (life == WorkerLife::kInitial) throw;
      // A late life's attach found every replica of some shard gone.
      run.outcomes[static_cast<std::size_t>(w)] = WorkerOutcome::kCrashed;
    }
    signal_supervisor(run, [&run, w] { run.exited.push_back(w); });
  });
  ++running_;
}

TrainResult Supervisor::run() {
  for (int w = 0; w < options_.workers; ++w) {
    start_life(w, WorkerLife::kInitial, ProgressBoard::kFirstIncarnation);
  }
  std::uint64_t seen = 0;
  std::vector<int> exited;
  bool global_initialised = false;
  for (;;) {
    for (const int w : exited) {
      lives_[static_cast<std::size_t>(w)].join();
      --running_;
    }
    // Fire before the hold is recomputed below: held workers re-vote without
    // waking the supervisor, so the pass that fires the last planned fault
    // must also release the hold.
    fire_due_faults(global_initialised);
    std::optional<Clock::time_point> deadline = control(exited, global_initialised);
    exited.clear();
    if (running_ == 0) break;
    catch_up_evals();

    // The next server fault, unless a W_g corruption still waits for W_g's
    // initial write.
    if (next_fault_ < server_faults_.size() &&
        (global_initialised ||
         server_faults_[next_fault_].kind != fault::FaultKind::kSegmentCorruption)) {
      const Clock::time_point at =
          wall_start_ + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                            server_faults_[next_fault_].start_seconds));
      if (!deadline.has_value() || at < *deadline) deadline = at;
    }
    std::unique_lock lock(run_.signal_mutex);
    const auto woken = [&] { return run_.signals != seen; };
    if (deadline.has_value()) {
      run_.signal_cv.wait_until(lock, *deadline, woken);
    } else {
      run_.signal_cv.wait(lock, woken);
    }
    seen = run_.signals;
    exited.swap(run_.exited);
    global_initialised = run_.global_ready;
  }
  catch_up_evals();
  final_evaluation();
  return report();
}

/// Fires every server fault due by now.  W_g corruptions wait for W_g's
/// initial write: a flip before it would be re-checksummed away unseen.
void Supervisor::fire_due_faults(bool global_initialised) {
  const double now = std::chrono::duration<double>(Clock::now() - wall_start_).count();
  for (; next_fault_ < server_faults_.size(); ++next_fault_) {
    const fault::FaultEvent& event = server_faults_[next_fault_];
    if (event.start_seconds > now) return;
    smb::SmbServer& target = *run_.servers[static_cast<std::size_t>(event.target)];
    if (event.kind == fault::FaultKind::kServerFailStop) {
      target.fail_stop();
    } else if (event.kind == fault::FaultKind::kSegmentCorruption) {
      if (!global_initialised) return;
      try {
        if (run_.corrupt_global(event.target, event.sequence,
                                std::max(1, static_cast<int>(event.severity))) > 0) {
          observed_.push_back(
              {fault::ControlAction::kCorruptionInjected, event.target, event.sequence});
        }
      } catch (const smb::SmbUnavailable&) {
        // the server fail-stopped first: the flips never land
      }
    } else {
      target.freeze_for(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(event.duration_seconds)));
    }
  }
}

/// One control pass over the progress board: attach once W_g is
/// initialised, fence or replace the crashed lives in `exited`, sweep
/// heartbeats and stragglers, fire due cold joins and hold or release the
/// stop.  Returns the earliest heartbeat or quarantine expiry.
std::optional<Clock::time_point> Supervisor::control(const std::vector<int>& exited,
                                                     bool global_initialised) {
  try {
    if (global_initialised && !attached_) {
      attached_ = true;
      board_.emplace(*run_.services.front(), run_.base_key + kProgressKeyOffset,
                     options_.workers, /*create=*/false);
      global_ = ShardedBuffer::attach(run_.services, run_.base_key, eval_net_.param_count());
    }
    if (!board_.has_value()) return std::nullopt;
    for (const int w : exited) {
      if (run_.outcomes[static_cast<std::size_t>(w)] == WorkerOutcome::kCrashed) on_crash(w);
    }
    if (options_.heartbeat_timeout_seconds > 0.0) {
      board_->sweep_dead(options_.heartbeat_timeout_seconds);
    }
    for (const auto& [w, verdict] : board_->sweep_stragglers()) {
      if (verdict == elastic::StragglerVerdict::kQuarantine) {
        run_.membership->quarantine(w);
      } else if (verdict == elastic::StragglerVerdict::kReadmit) {
        run_.membership->readmit_contributor(w);
      } else if (verdict == elastic::StragglerVerdict::kEvict) {
        run_.membership->evict(w);
      }
    }
    // Planned cold joins fire once the cohort's progress reaches them.
    if (!board_->stop_raised()) {
      const std::int64_t progress = board_->max_iterations();
      for (; next_join_ < joins_.size() && joins_[next_join_].at_iteration <= progress;
           ++next_join_) {
        const int w = joins_[next_join_].worker;
        const std::int64_t incarnation = board_->admit(w);
        run_.membership->join(w);
        start_life(w, WorkerLife::kColdJoin, incarnation);
      }
    }
    // Hold the stop while a planned transition is outstanding: a server
    // fault not yet fired, or a quarantined worker not yet readmitted.
    bool hold = next_fault_ < server_faults_.size();
    for (int w = 0; !hold && w < run_.capacity; ++w) {
      hold = board_->state_of(w) == ProgressBoard::WorkerState::kQuarantined;
    }
    if (hold != held_) {
      board_->hold_stop(hold);
      held_ = hold;
    }
    const double expiry = board_->seconds_to_next_expiry(options_.heartbeat_timeout_seconds);
    if (std::isfinite(expiry)) {
      return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(std::max(0.0, expiry)));
    }
  } catch (const smb::SmbError&) {
    // Every replica of a shard is gone (the workers' own SMB access fails
    // them the same way), or the segments were released before the
    // attach: no control plane is left to run.
    board_.reset();
  }
  return std::nullopt;
}

/// A crashed life is dead at once; a slot the plan re-admits gets its
/// replacement life right away, under a fresh incarnation.
void Supervisor::on_crash(int w) {
  board_->mark_dead(w);
  if (w >= options_.workers || !respawn_[static_cast<std::size_t>(w)] || board_->stop_raised()) {
    return;
  }
  respawn_[static_cast<std::size_t>(w)] = 0;  // one replacement per planned re-admission
  recovered_[static_cast<std::size_t>(w)] = 1;
  start_life(w, WorkerLife::kRejoin, board_->readmit(w));
}

void Supervisor::catch_up_evals() {
  if (!global_.valid()) return;
  const std::int64_t done = run_.total_iterations.load(std::memory_order_relaxed);
  while (next_epoch_ < options_.epochs &&
         done >= static_cast<std::int64_t>(next_epoch_) * per_epoch_total_) {
    try {
      global_.read(eval_net_.param_values());
    } catch (const smb::SmbUnavailable&) {
      return;  // SMB permanently gone mid-run; keep the curve so far
    } catch (const smb::SmbCorruption&) {
      // W_g is corrupt and nothing could repair it yet: skip this pass
      // and retry, after a worker's rollback has rewritten it.
      return;
    }
    const EvalResult eval = evaluate(eval_net_, test_set_);
    result_.curve.push_back(EpochMetrics{next_epoch_, eval.loss, eval.accuracy});
    ++next_epoch_;
  }
}

void Supervisor::final_evaluation() {
  // End-of-training scrub: catch (and repair) corruption injected after the
  // last exchange, while the supervisor still holds the segments and
  // before the final weights are evaluated.
  if (options_.integrity.verify_on_read) {
    for (const auto& ensemble : run_.ensembles) {
      try {
        ensemble->scrub();
      } catch (const smb::SmbError&) {
        // every replica gone: nothing left to scrub
      }
    }
  }

  if (global_.valid()) {
    try {
      global_.read(eval_net_.param_values());
      const EvalResult final_eval = evaluate(eval_net_, test_set_);
      result_.final_accuracy = final_eval.accuracy;
      result_.final_loss = final_eval.loss;
      if (result_.curve.empty() || result_.curve.back().epoch < options_.epochs) {
        result_.curve.push_back(
            EpochMetrics{options_.epochs, final_eval.loss, final_eval.accuracy});
      }
      global_.release();
    } catch (const smb::SmbError&) {
      // SMB permanently gone: no final evaluation, nothing to release
    }
  }
  if (board_.has_value()) {
    try {
      board_->release();
    } catch (const smb::SmbError&) {
      // the board's server fail-stopped: nothing to release
    }
  }
}

TrainResult Supervisor::report() {
  TrainResult& result = result_;
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - wall_start_).count();
  result.iterations_per_worker = run_.final_iterations;
  result.worker_stats = std::move(run_.worker_stats);
  result.worker_outcomes = run_.outcomes;
  for (int w = 0; w < run_.capacity; ++w) {
    const WorkerOutcome outcome = run_.outcomes[static_cast<std::size_t>(w)];
    if (outcome == WorkerOutcome::kCrashed || outcome == WorkerOutcome::kFenced ||
        outcome == WorkerOutcome::kEvicted) {
      result.dead_workers.push_back(w);
    }
    if (w < options_.workers && recovered_[static_cast<std::size_t>(w)]) {
      result.recovered_workers.push_back(w);
      fault::record(observed_, fault::ControlAction::kWorkerReadmit, w);
    }
  }
  if (run_.membership.has_value()) run_.membership->report(result, observed_);
  result.checkpoints_taken = run_.checkpoints_taken.load(std::memory_order_relaxed);
  result.resumed_iterations = run_.resumed_total;

  // Recovery and integrity observability, on physical server indices
  // (RunPlan::physical_server).  A failover names the replica that died
  // while active; detections and torn writes come from each physical
  // server; the ensembles report repairs without the replica they rewrote,
  // so each repaired marker is attributed to the replica of its shard whose
  // server detected it.
  const std::vector<std::unique_ptr<recovery::ReplicatedSmb>>& ensembles = run_.ensembles;
  for (std::size_t s = 0; s < ensembles.size(); ++s) {
    result.smb_failovers += static_cast<std::int64_t>(ensembles[s]->failover_count());
    for (const int replica : ensembles[s]->failover_log()) {
      fault::record(observed_, fault::ControlAction::kSmbFailover,
                    options_.physical_server(static_cast<int>(s), replica));
    }
  }
  std::vector<std::uint64_t> detected;  // distinct markers across the servers
  for (int n = 0; n < static_cast<int>(run_.servers.size()); ++n) {
    const smb::SmbServer& server = *run_.servers[static_cast<std::size_t>(n)];
    for (const std::uint64_t marker : server.detected_markers()) {
      observed_.push_back({fault::ControlAction::kCorruptionDetected, n, marker});
      if (std::find(detected.begin(), detected.end(), marker) == detected.end()) {
        detected.push_back(marker);
      }
    }
    for (const std::uint64_t marker : server.torn_applied_markers()) {
      observed_.push_back({fault::ControlAction::kTornWriteApplied, n, marker});
    }
    for (const std::uint64_t marker : server.pinned_corruption_markers()) {
      observed_.push_back({fault::ControlAction::kCorruptionInjected, n, marker});
    }
  }
  for (std::size_t s = 0; s < ensembles.size(); ++s) {
    result.integrity_repairs += static_cast<std::int64_t>(ensembles[s]->repairs());
    result.scrub_passes += static_cast<std::int64_t>(ensembles[s]->scrub_passes());
    for (const std::uint64_t marker : ensembles[s]->repaired_markers()) {
      for (int r = 0; r < options_.smb_replicas; ++r) {
        const int n = options_.physical_server(static_cast<int>(s), r);
        const fault::ControlEvent detection{fault::ControlAction::kCorruptionDetected, n, marker};
        if (std::find(observed_.begin(), observed_.end(), detection) != observed_.end()) {
          observed_.push_back({fault::ControlAction::kCorruptionRepaired, n, marker});
        }
      }
    }
  }
  result.corruptions_detected = static_cast<std::int64_t>(detected.size());
  result.integrity_rollbacks = run_.integrity_rollbacks.load(std::memory_order_relaxed);

  // The executed journal: the planned events this run observed, in planned
  // order.  The sim twin keeps its own observations of the same plan, so
  // equal journals mean both stacks took the same control actions.
  result.journal = fault::executed(planned_, observed_);
  return std::move(result);
}

}  // namespace

TrainResult train_shmcaffe(const DistTrainOptions& options) {
  options.validate();
  return Supervisor(options).run();
}

}  // namespace shmcaffe::core
