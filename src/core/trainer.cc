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
#include "common/arena.h"
#include "common/parallel.h"
#include "core/evaluate.h"
#include "core/progress_board.h"
#include "core/seasgd_math.h"
#include "core/sharded_buffer.h"
#include "data/loader.h"
#include "dl/param_vector.h"
#include "elastic/membership.h"
#include "fault/injector.h"
#include "fault/journal.h"
#include "minimpi/minimpi.h"
#include "recovery/checkpoint.h"
#include "recovery/replicated_smb.h"
#include "smb/server.h"

namespace shmcaffe::core {
namespace {

constexpr smb::ShmKey kProgressKeyOffset = 1'000'000;
/// How long a parked worker (skew pacing, a held stop) sleeps between
/// heartbeats.
constexpr auto kParkPoll = std::chrono::microseconds(50);

/// The Fig. 6 update-thread state: one per group root.
struct ExchangeState {
  std::mutex mutex;
  std::condition_variable cv;
  bool pending = false;  // a weight increment awaits flushing to the SMB
  bool stopping = false;
  /// Weight-increment staging (eq. 5 output), arena-backed: sized once per
  /// worker life and recycled across lives through the registry.  The buffer
  /// is an owning arena allocation (not a view of SMB storage), shared
  /// between the main and update threads under `mutex` for the worker's
  /// whole life — a deliberate escape.
  common::arena::Buffer delta SHMCAFFE_PIN_ESCAPE{"trainer.exchange.delta"};
};

struct WorkerShared {
  const DistTrainOptions* options = nullptr;
  const data::SynthImageDataset* train_set = nullptr;
  /// One service per shard: the raw SmbServer (smb_replicas == 1) or the
  /// shard's ReplicatedSmb ensemble — workers are oblivious to which.
  std::vector<smb::SmbService*> services;
  minimpi::Context* mpi = nullptr;
  std::vector<std::unique_ptr<coll::DeviceGroup>>* groups = nullptr;
  std::int64_t target_iterations = 0;
  int lr_step_iterations = 0;
  smb::ShmKey base_key = 0;
  /// Worker slots including reserved join capacity (== workers when the run
  /// is not elastic); final_iterations/worker_stats/outcomes are this long.
  int capacity = 0;
  std::atomic<std::int64_t> total_iterations{0};
  std::vector<std::int64_t> final_iterations;  // one slot per worker
  std::vector<WorkerStats> worker_stats;       // one slot per worker
  std::vector<WorkerOutcome> outcomes;         // one slot per worker
  // --- elastic membership -------------------------------------------------
  /// The run's membership registry, or nullptr for a fixed-membership run.
  elastic::MembershipService* membership = nullptr;
  // --- recovery ----------------------------------------------------------
  const recovery::TrainCheckpoint* resume = nullptr;  // validated, or null
  const recovery::CheckpointStore* checkpoint_store = nullptr;
  std::atomic<std::int64_t> checkpoints_taken{0};
  std::atomic<std::uint64_t> checkpoint_sequence{0};
  // --- data integrity ----------------------------------------------------
  /// Per-shard replica ensembles, for checkpoint-window scrubbing (empty
  /// when smb_replicas == 1 — scrubbing needs a peer to vote against).
  std::vector<recovery::ReplicatedSmb*> ensembles;
  std::atomic<std::int64_t> integrity_rollbacks{0};
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

/// Applies `update` to the supervisor's wake-up state and wakes it.
template <typename Update>
void signal_supervisor(WorkerShared& shared, Update&& update) {
  {
    std::scoped_lock lock(shared.signal_mutex);
    update();
    ++shared.signals;
  }
  shared.signal_cv.notify_one();
}

/// Adds the elapsed seconds since `from` to `sink` and resets `from`.
class SegmentTimer {
 public:
  using Clock = std::chrono::steady_clock;
  void charge(double& sink) {
    const Clock::time_point now = Clock::now();
    sink += std::chrono::duration<double>(now - mark_).count();
    mark_ = now;
  }

 private:
  Clock::time_point mark_ = Clock::now();
};

/// True if `b` pins, shard for shard, the same storage as `a`: a pinned
/// epoch stays alive while viewed, so equal addresses mean the same epoch.
bool same_epochs(const std::vector<ShardedBuffer::PinnedShard>& a,
                 const std::vector<ShardedBuffer::PinnedShard>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].view.data() != b[i].view.data() ||
        a[i].view.size() != b[i].view.size()) {
      return false;
    }
  }
  return true;
}

/// Which life of a worker slot this call runs.
enum class WorkerLife {
  kInitial,   ///< an original rank, from the start of the run
  kRejoin,    ///< a replacement life for a crashed rank (recovery)
  kColdJoin,  ///< an elastic cold join into a reserved capacity slot
};

/// kRejoin runs a replacement life for a crashed worker slot: it attaches
/// to the existing segments by SHM key (the Fig. 2 slave path) and adopts
/// the current W_g.  The supervisor has already re-admitted the slot on the
/// progress board under a fresh `incarnation`, so anything the previous
/// life left behind is fenced.  kColdJoin is the elastic variant: the slot
/// never lived before; the supervisor admitted it onto the board (fresh
/// incarnation, never a dead rank's slot) and the membership service has
/// rebalanced the shard map for it.  Both late lives skip the MPI
/// collectives — their peers ran them long ago.
void run_worker(WorkerShared& shared, int worker, WorkerLife life, std::int64_t incarnation) {
  // Every life of a worker is a compute lane for as long as its thread runs;
  // the update thread and the evaluator are not (common/parallel.h).
  const common::parallel::Lane lane;
  const DistTrainOptions& options = *shared.options;
  const bool rejoin = life == WorkerLife::kRejoin;
  const bool cold_join = life == WorkerLife::kColdJoin;
  const int group_size = options.group_size;
  const int group_index = worker / group_size;
  const int local_rank = worker % group_size;
  const bool is_root = local_rank == 0;
  const bool is_async = group_size == 1;

  // Cold-join slots sit beyond the MPI world and the device groups (both
  // are sized for the initial ranks); elastic runs are pure SEASGD
  // (group_size == 1, validated by train_shmcaffe), so a joiner never
  // touches either handle.
  minimpi::Endpoint mpi;
  coll::Communicator comm;
  if (!cold_join) {
    mpi = shared.mpi->endpoint(worker);
    comm = (*shared.groups)[static_cast<std::size_t>(group_index)]->communicator(local_rank);
  }

  dl::Net net = dl::make_model(options.model_family, options.input);
  const std::size_t param_count = net.param_count();

  // A resumed run restores worker cursors from the checkpoint; replacement
  // and cold-join lives start their own count from zero (their board slot
  // was reset or freshly admitted).
  const recovery::TrainCheckpoint* resume =
      (rejoin || cold_join) ? nullptr : shared.resume;
  const std::int64_t start_iteration =
      resume != nullptr ? resume->worker_iterations[static_cast<std::size_t>(worker)] : 0;

  // --- Fig. 2 initialisation: the master creates the global-weight segment
  // and the progress board, then broadcasts the SHM key over MPI.  A
  // replacement life skips the collectives (its peers ran them long ago)
  // and goes straight to the slave attach path.
  smb::ShmKey shm_key = 0;
  ShardedBuffer global;
  std::unique_ptr<ProgressBoard> board;
  smb::SmbService& board_server = *shared.services.front();
  if (rejoin || cold_join) {
    shm_key = shared.base_key;
    global = ShardedBuffer::attach(shared.services, shm_key, param_count);
    board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                            options.workers, /*create=*/false);
  } else if (worker == 0) {
    shm_key = shared.base_key;
    global = ShardedBuffer::create(shared.services, shm_key, param_count);
    board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                            options.workers, /*create=*/true,
                                            shared.capacity);
    // Arm the supervisor's controls before any peer can report.
    board->hold_stop(shared.hold_at_start);
    if (options.membership_policy.straggler_detection) {
      board->watch_stragglers(options.membership_policy);
    }
    common::arena::Buffer init{"trainer.init"};
    init.assign(param_count, 0.0F);
    if (resume != nullptr) {
      // W_g exactly as checkpointed
      std::copy(resume->global_weights.begin(), resume->global_weights.end(), init.data());
    } else {
      common::Rng init_rng(options.seed);
      net.init_params(init_rng);
      dl::copy_params_to(net, init.span());
    }
    global.write(init.span());
    signal_supervisor(shared, [&shared] { shared.global_ready = true; });
  }
  if (!rejoin && !cold_join) {
    mpi.broadcast_value(0, shm_key);
    if (worker != 0) {
      global = ShardedBuffer::attach(shared.services, shm_key, param_count);
      board = std::make_unique<ProgressBoard>(board_server, shm_key + kProgressKeyOffset,
                                              options.workers, /*create=*/false);
    }
  }
  board->heartbeat(worker, incarnation);  // arm liveness before the first iteration
  // Restore this worker's public iteration count so kAverageIterations
  // accounting continues where the interrupted run left off.
  if (start_iteration > 0) board->report(worker, start_iteration, incarnation);
  // Every group root owns a private weight-increment buffer (Fig. 5: the
  // dW_x buffers are not shared among other workers).  A replacement life
  // re-attaches its crashed predecessor's orphaned buffer.
  ShardedBuffer delta_buffer;
  if (is_root) {
    const smb::ShmKey delta_key = shm_key + 1 + static_cast<smb::ShmKey>(worker);
    if (rejoin) {
      try {
        delta_buffer = ShardedBuffer::attach(shared.services, delta_key, param_count);
      } catch (const smb::SmbNotFound&) {
        delta_buffer = ShardedBuffer::create(shared.services, delta_key, param_count);
      }
    } else {
      delta_buffer = ShardedBuffer::create(shared.services, delta_key, param_count);
    }
  }
  if (!rejoin && !cold_join) mpi.barrier();

  // Elastic fan-out rotation: start every multi-shard SMB access at this
  // worker's home shard (rebalanced by the membership service on every
  // join/drain/evict) so concurrent exchanges spread across the shard
  // ensembles instead of all serialising on shard 0.
  elastic::MembershipService* const membership = shared.membership;
  auto home_shard = [membership, worker]() -> std::size_t {
    return membership != nullptr ? static_cast<std::size_t>(membership->home_shard(worker))
                                 : 0;
  };

  // Everyone adopts the initial global weights before training; the resumed
  // owner restores its exact checkpointed parameters instead (they lag W_g
  // by the elastic difference).
  common::arena::Buffer local{"trainer.local"};
  local.assign(param_count, 0.0F);
  common::arena::Buffer global_copy{"trainer.global_copy"};
  global_copy.assign(param_count, 0.0F);
  try {
    global.read(local.span(), home_shard());
  } catch (const smb::SmbCorruption&) {
    // W_g is corrupt before this life's first read and nothing below us
    // could repair it.  Adopt freshly initialised parameters instead; the
    // first exchange surfaces the corruption again and rolls back properly.
    common::Rng init_rng(options.seed);
    net.init_params(init_rng);
    dl::copy_params_to(net, local.span());
  }
  dl::copy_params_from(net, local.span());
  if (resume != nullptr && worker == 0) {
    dl::copy_params_from(net, resume->owner_params);
  }

  dl::SolverOptions solver_options = options.solver;
  solver_options.step_size = shared.lr_step_iterations;
  dl::SgdSolver solver(net, solver_options);
  if (resume != nullptr) {
    solver.set_iteration(static_cast<int>(
        worker == 0 ? resume->owner_solver_iteration : start_iteration));
    if (worker == 0) solver.set_momentum_state(resume->owner_momentum);
  }

  // Data shards are cut over the full slot capacity so a cold joiner gets a
  // shard of its own (capacity == workers in a fixed-membership run, so the
  // classic sharding is unchanged).
  data::ShardedLoader loader(*shared.train_set, worker, shared.capacity, options.batch_size,
                             options.seed ^ 0xda7aULL);
  if (start_iteration > 0) loader.skip_batches(start_iteration);
  data::Prefetcher prefetcher(std::move(loader), options.prefetch_depth);

  // --- Fig. 6 update thread (group roots only).
  ExchangeState exchange;
  exchange.delta.assign(param_count, 0.0F);
  std::thread update_thread;
  if (is_root) {
    // The update thread flushes T.A1-T.A4 while *holding* exchange.mutex:
    // that mutex IS the Fig. 6 mutual exclusion between the main thread's
    // T1/T2 window and the flush, and the only other party is the main
    // thread, which is parked on exchange.cv (mutex released) whenever the
    // flush runs.  lint:allow-next-line(no-blocking-under-lock)
    update_thread = std::thread([&exchange, &delta_buffer, &global, home_shard] {
      std::unique_lock lock(exchange.mutex);
      for (;;) {
        exchange.cv.wait(lock, [&] { return exchange.pending || exchange.stopping; });
        if (!exchange.pending) return;  // stopping with nothing pending
        try {
          // T.A1: store the weight increment in this worker's RSM segments.
          delta_buffer.write(exchange.delta.span(), home_shard());
          // T.A2-T.A4: exclusive server-side global accumulate (eq. 7),
          // shard by shard across the SMB servers starting at the home shard.
          delta_buffer.accumulate_into(global, home_shard());
        } catch (const smb::SmbUnavailable&) {
          // Every replica of some shard is gone.  Unblock the main thread
          // and bow out; its own SMB access surfaces the failure.
          exchange.pending = false;
          exchange.stopping = true;
          exchange.cv.notify_all();
          return;
        } catch (const smb::SmbCorruption&) {
          // Unrepairable corruption on the delta/global path: this increment
          // cannot land safely, so drop it.  The main thread's next exchange
          // read surfaces the corruption and rolls W_g back.
          exchange.pending = false;
          exchange.cv.notify_all();
          continue;
        }
        exchange.pending = false;
        exchange.cv.notify_all();  // T.A5: wake a blocked main thread
      }
    });
  }

  WorkerStats& stats = shared.worker_stats[static_cast<std::size_t>(worker)];
  const float alpha = static_cast<float>(options.moving_rate);
  auto seasgd_exchange = [&] {
    ++stats.exchanges;
    // T1/T2 must be mutually exclusive with the update thread's T.A1-T.A4:
    // block here until the previous increment has been flushed.
    std::unique_lock lock(exchange.mutex);
    exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
    if (exchange.stopping) throw smb::SmbUnavailable("SMB lost during exchange");
    dl::copy_params_to(net, local.span());
    {
      // T1 zero-copy: pin per-shard views of W_g (checksums verified at pin
      // time) and run T2 directly against SMB storage — no staging copy of
      // the global weights at all.  Per-shard chunking changes nothing
      // numerically: eqs. (5)+(6) are elementwise, so the floats match a
      // staged copy read followed by the scalar elastic_exchange bitwise, for
      // any shard split or pool width.  T1/T2 run under exchange.mutex by
      // design (mutual exclusion with the update thread, which is parked on
      // the cv here), and the pins are dropped before the lock: frame-local,
      // never pinned-across-unlock.  This block ends before T3 wakes the
      // update thread, whose accumulate would clone a still-pinned epoch.
      // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
      std::vector<ShardedBuffer::PinnedShard> pins = global.read_pinned(home_shard());
      for (;;) {
        for (ShardedBuffer::PinnedShard& shard : pins) {
          // lint:allow-next-line(no-blocking-under-lock) pool fan-out inside
          elastic_exchange_parallel(                      // the T1/T2 window
              std::span<float>(local.data() + shard.offset, shard.view.size()),
              shard.view.span(), alpha,
              std::span<float>(exchange.delta.data() + shard.offset, shard.view.size()));
        }
        if (!options.integrity.verify_on_read) break;
        // A bit flip does not respect pins: one landing in the pinned epoch
        // after its pin-time verification would reach local and the delta
        // unverified.  Re-pinning verifies the live epoch again (and read-
        // repairs it through the replica vote).  If every shard still pins
        // the epoch T2 read, that epoch verified clean after T2, so the
        // increment stands; otherwise drop it and redo T1/T2 from the fresh
        // pins.
        // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
        std::vector<ShardedBuffer::PinnedShard> fresh = global.read_pinned(home_shard());
        if (same_epochs(pins, fresh)) break;
        pins = std::move(fresh);
        dl::copy_params_to(net, local.span());
      }
    }
    dl::copy_params_from(net, local.span());
    exchange.pending = true;  // T3: hand the increment to the update thread
    lock.unlock();
    exchange.cv.notify_all();
  };

  // Unrepairable corruption surfaced on the global-weight path: degrade to
  // a rollback instead of aborting.  Restore W_g from the newest valid
  // checkpoint — or, without one, from this worker's own parameters
  // (consistent, if older) — and continue; the full rewrite refreshes the
  // segment checksums, healing every replica.
  auto integrity_rollback = [&] {
    shared.integrity_rollbacks.fetch_add(1, std::memory_order_relaxed);
    std::vector<float> restore;
    if (shared.checkpoint_store != nullptr) {
      std::optional<recovery::TrainCheckpoint> rollback;
      try {
        rollback = shared.checkpoint_store->load_latest();
      } catch (const std::exception&) {
        // unreadable store: fall through to the local-parameter restore
      }
      if (rollback.has_value() && rollback->global_weights.size() == param_count) {
        restore = std::move(rollback->global_weights);
      }
    }
    if (restore.empty()) {
      dl::copy_params_to(net, local.span());
      restore.assign(local.data(), local.data() + local.size());
    }
    global.write(restore, home_shard());
  };

  // Periodic crash-consistent checkpoint (owner worker only): quiesce the
  // update thread, snapshot W_g + the board counters + the owner solver
  // state, and hand it to the double-buffered store.
  const bool checkpointing = shared.checkpoint_store != nullptr && worker == 0 &&
                             options.checkpoint.interval_iterations > 0;
  auto save_checkpoint = [&](std::int64_t iteration) {
    recovery::TrainCheckpoint checkpoint;
    checkpoint.sequence =
        shared.checkpoint_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
    checkpoint.seed = options.seed;
    checkpoint.owner_solver_iteration = solver.iteration();
    checkpoint.worker_iterations.resize(static_cast<std::size_t>(options.workers));
    for (int w = 0; w < options.workers; ++w) {
      checkpoint.worker_iterations[static_cast<std::size_t>(w)] =
          w == worker ? iteration : board->iterations_of(w);
    }
    {
      std::unique_lock lock(exchange.mutex);
      exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
      if (exchange.stopping) throw smb::SmbUnavailable("SMB lost during checkpoint");
      // Checkpoint consistency REQUIRES reading W_g inside the exchange
      // window: no accumulate can be in flight while the mutex is held.
      // lint:allow-next-line(no-blocking-under-lock)
      global.read(global_copy.span());  // consistent: no in-flight accumulate
    }
    checkpoint.global_weights.assign(global_copy.data(), global_copy.data() + global_copy.size());
    dl::copy_params_to(net, local.span());
    checkpoint.owner_params.assign(local.data(), local.data() + local.size());
    checkpoint.owner_momentum = solver.momentum_state();
    shared.checkpoint_store->save(checkpoint);
    shared.checkpoints_taken.fetch_add(1, std::memory_order_relaxed);
    // Checkpoint windows double as scrub windows: walk the replica
    // ensembles while the update thread is quiesced, repairing any silent
    // corruption before it is ever read.
    if (options.integrity.verify_on_read) {
      for (recovery::ReplicatedSmb* ensemble : shared.ensembles) ensemble->scrub();
    }
  };

  // Fault injection: crashes fell whole groups (a dead node takes all its
  // GPUs), keyed on the group root's worker index so every member of a
  // hybrid group breaks at the same iteration, before any collective could
  // deadlock on a missing peer.  Stalls are per individual worker.  A
  // replacement life does not replay its predecessor's faults.
  const fault::FaultInjector* faults = rejoin ? nullptr : options.faults;
  const int group_root_worker = worker - local_rank;

  std::vector<float> grads(group_size > 1 ? param_count : 0);
  std::int64_t iteration = start_iteration;
  bool stop = false;
  bool crashed = false;
  bool drained = false;
  bool evicted = false;
  // §III-E: aligned termination via the shared progress board.  The group
  // root votes and synchronous members follow its vote, so the group never
  // diverges; members report for themselves.
  std::vector<float> vote(1);
  auto cast_vote = [&] {
    if (is_root) {
      vote[0] = static_cast<float>(board->vote(options.termination, worker, iteration,
                                               shared.target_iterations, incarnation));
    } else {
      board->report(worker, iteration, incarnation);
    }
    if (group_size > 1) comm.broadcast(0, vote);
    return static_cast<ProgressBoard::Vote>(static_cast<std::int64_t>(vote[0]));
  };
  // The planned iteration at which this worker leaves voluntarily (-1:
  // never).  A drain applies to the slot's current life; a replacement life
  // honours it too.
  const std::int64_t drain_at =
      options.membership != nullptr ? options.membership->drain_iteration(worker) : -1;
  try {
    while (!stop) {
      if (faults != nullptr) {
        if (faults->crashes_at(group_root_worker, iteration)) {
          // Fail-stop: exit without reporting, marking, or releasing; the
          // supervisor fences the slot when it reaps this life.
          crashed = true;
          break;
        }
        const double stall = faults->stall_seconds(worker, iteration);
        if (stall > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall));
        }
      }
      // Voluntary drain: flush the pending increment so the last
      // contribution lands, register the departure (epoch bump + shard
      // rebalance), and leave cleanly.
      if (drain_at >= 0 && iteration >= drain_at && !board->stop_raised()) {
        if (is_root) {
          std::unique_lock lock(exchange.mutex);
          exchange.cv.wait(lock, [&] { return !exchange.pending || exchange.stopping; });
        }
        board->mark_drained(worker);
        if (membership != nullptr) membership->drain(worker);
        drained = true;
        break;
      }
      // Fenced while stalled: dead is final for this life, so exit instead
      // of re-joining; an eviction by the straggler detector ends the same
      // way.  Async only — a hybrid member must keep lockstep with its
      // group (whose peers may already be blocked in a collective) and
      // exits through the root's stop vote instead.
      ProgressBoard::WorkerState my_state = ProgressBoard::WorkerState::kAlive;
      if (is_async) {
        my_state = board->state_of(worker);
        if (my_state == ProgressBoard::WorkerState::kDead) break;
        if (my_state == ProgressBoard::WorkerState::kEvicted) {
          evicted = true;
          break;
        }
      }
      // Quarantined: keep training toward readmission, but contribute
      // nothing — no SEASGD exchange until the supervisor readmits it.
      const bool quarantined = my_state == ProgressBoard::WorkerState::kQuarantined;

      // Homogeneous-GPU pacing: do not run further ahead of the slowest
      // *live* worker than the configured skew (see DistTrainOptions).
      if (options.max_iteration_skew > 0) {
        while (!board->stop_raised() && !board->is_dead(worker) &&
               iteration - board->min_iterations() >
                   static_cast<std::int64_t>(options.max_iteration_skew)) {
          board->heartbeat(worker, incarnation);
          std::this_thread::sleep_for(kParkPoll);
        }
      }

      const bool sharing = iteration % options.update_interval == 0;
      SegmentTimer timer;

      // ShmCaffe-A reads the global weight at the start of every iteration;
      // the paper deliberately does not hide T_rgw behind computation, to
      // avoid training on stale parameters.
      if (is_async && sharing && !quarantined) {
        try {
          seasgd_exchange();
        } catch (const smb::SmbCorruption&) {
          integrity_rollback();
        }
        timer.charge(stats.exchange_seconds);
      }

      data::Batch batch = prefetcher.next();
      timer.charge(stats.data_wait_seconds);
      net.input("data") = std::move(batch.data);
      net.input("label") = std::move(batch.labels);
      (void)net.forward(/*train=*/true);
      net.backward();
      timer.charge(stats.train_seconds);

      if (group_size > 1) {
        // Hybrid: intra-group synchronous SGD (ncclAllReduce of gradients).
        dl::copy_grads_to(net, grads);
        comm.all_reduce_mean(grads);
        dl::copy_grads_from(net, grads);
        timer.charge(stats.collective_seconds);
      }
      solver.step();  // eq. (2)
      timer.charge(stats.train_seconds);

      if (!is_async && sharing) {
        // Hybrid §III-D: the root exchanges with the SMB server, then
        // broadcasts the refreshed weights to its group.
        if (is_root) {
          try {
            seasgd_exchange();
          } catch (const smb::SmbCorruption&) {
            integrity_rollback();
          }
          dl::copy_params_to(net, local.span());
          timer.charge(stats.exchange_seconds);
        }
        comm.broadcast(0, local.span());
        if (!is_root) dl::copy_params_from(net, local.span());
        timer.charge(stats.collective_seconds);
      }

      ++iteration;
      shared.total_iterations.fetch_add(1, std::memory_order_relaxed);

      if (checkpointing && iteration % options.checkpoint.interval_iterations == 0) {
        try {
          save_checkpoint(iteration);
        } catch (const smb::SmbCorruption&) {
          integrity_rollback();
        }
      }

      // The report wakes the supervisor.  A held stop (the criterion is met
      // but a planned transition is outstanding) parks the group,
      // heartbeating, until the root votes otherwise.
      ProgressBoard::Vote decision = cast_vote();
      signal_supervisor(shared, [] {});
      while (decision == ProgressBoard::Vote::kHold) {
        std::this_thread::sleep_for(kParkPoll);
        decision = cast_vote();
      }
      stop = decision == ProgressBoard::Vote::kStop;
    }
  } catch (const smb::SmbUnavailable&) {
    // The SMB backing this worker is permanently gone (no replica left to
    // fail over to): an infrastructure-induced fail-stop.
    crashed = true;
  } catch (const smb::SmbCorruption&) {
    // Corruption surfaced outside a rollback-capable site (no checkpoint,
    // no clean replica): data loss, treated like a fail-stop.
    crashed = true;
  }

  shared.final_iterations[static_cast<std::size_t>(worker)] = iteration;
  stats.iterations = iteration;
  WorkerOutcome outcome = WorkerOutcome::kFinished;
  if (crashed) {
    outcome = WorkerOutcome::kCrashed;
  } else if (drained) {
    outcome = WorkerOutcome::kDrained;
  } else if (evicted) {
    outcome = WorkerOutcome::kEvicted;
  } else {
    try {
      switch (board->state_of(worker)) {
        case ProgressBoard::WorkerState::kDead:
          outcome = WorkerOutcome::kFenced;
          break;
        case ProgressBoard::WorkerState::kEvicted:
          outcome = WorkerOutcome::kEvicted;
          break;
        default:
          outcome = WorkerOutcome::kFinished;
          break;
      }
    } catch (const smb::SmbUnavailable&) {
      outcome = WorkerOutcome::kCrashed;
    }
  }
  shared.outcomes[static_cast<std::size_t>(worker)] = outcome;

  if (is_root) {
    {
      std::scoped_lock lock(exchange.mutex);
      exchange.stopping = true;
    }
    exchange.cv.notify_all();
    update_thread.join();  // thread hygiene even on the crash path
  }
  if (outcome == WorkerOutcome::kCrashed) return;  // fail-stop: nothing is released
  try {
    if (outcome == WorkerOutcome::kFinished) board->mark_finished(worker);
    if (is_root) delta_buffer.release();
    board->release();
    global.release();
  } catch (const smb::SmbError&) {
    // Releasing against a fail-stopped service: nothing left to clean up.
  }
}

}  // namespace

TrainResult train_shmcaffe(const DistTrainOptions& options) {
  if (options.workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (options.group_size < 1 || options.workers % options.group_size != 0) {
    throw std::invalid_argument("group_size must divide workers");
  }
  if (options.update_interval < 1) {
    throw std::invalid_argument("update_interval must be >= 1");
  }

  if (options.smb_servers < 1) throw std::invalid_argument("smb_servers must be >= 1");
  if (options.smb_replicas < 1) throw std::invalid_argument("smb_replicas must be >= 1");
  if (options.recovery.respawn_crashed && options.group_size != 1) {
    // A replacement cannot rejoin a hybrid group mid-collective.
    throw std::invalid_argument("respawn_crashed requires group_size == 1");
  }
  const bool elastic_run =
      options.membership != nullptr || options.membership_policy.straggler_detection;
  if (elastic_run && options.group_size != 1) {
    // Elastic workers run pure SEASGD: a hybrid group cannot shrink or grow
    // mid-collective.
    throw std::invalid_argument("elastic membership requires group_size == 1");
  }
  if (options.membership != nullptr) {
    for (const elastic::MembershipEvent& event : options.membership->events()) {
      if (event.kind == elastic::MembershipEventKind::kJoin &&
          event.worker < options.workers) {
        // A cold join never reuses an initial rank's slot — that is the
        // recovery layer's re-admission path.
        throw std::invalid_argument("join slots must be >= the initial worker count");
      }
    }
  }
  const data::SynthImageDataset train_set(options.train_data);
  const data::SynthImageDataset test_set(options.test_data);

  // Physical server topology: smb_servers shards × smb_replicas replicas,
  // replica r of shard s at physical index s * smb_replicas + r.  Fault
  // plans target physical indices.  With replication each shard is wrapped
  // in a ReplicatedSmb ensemble; workers only ever see the per-shard
  // SmbService, so the Fig. 6 protocol is identical either way.
  const int physical_count = options.smb_servers * options.smb_replicas;
  smb::SmbServerOptions server_options;
  server_options.integrity.verify_on_read = options.integrity.verify_on_read;
  std::vector<std::unique_ptr<smb::SmbServer>> servers;
  for (int n = 0; n < physical_count; ++n) {
    servers.push_back(std::make_unique<smb::SmbServer>(server_options));
  }
  std::vector<std::unique_ptr<recovery::ReplicatedSmb>> ensembles;
  if (options.smb_replicas > 1) {
    for (int s = 0; s < options.smb_servers; ++s) {
      std::vector<smb::SmbServer*> members;
      for (int r = 0; r < options.smb_replicas; ++r) {
        members.push_back(servers[static_cast<std::size_t>(s * options.smb_replicas + r)].get());
      }
      ensembles.push_back(std::make_unique<recovery::ReplicatedSmb>(
          std::move(members), options.integrity.read_repair));
    }
  }
  minimpi::Context mpi(options.workers);
  std::vector<std::unique_ptr<coll::DeviceGroup>> groups;
  for (int g = 0; g < options.workers / options.group_size; ++g) {
    groups.push_back(std::make_unique<coll::DeviceGroup>(options.group_size));
  }

  WorkerShared shared;
  shared.options = &options;
  shared.train_set = &train_set;
  if (options.smb_replicas > 1) {
    for (const auto& ensemble : ensembles) {
      shared.services.push_back(ensemble.get());
      shared.ensembles.push_back(ensemble.get());
    }
  } else {
    for (const auto& server : servers) shared.services.push_back(server.get());
  }
  shared.mpi = &mpi;
  shared.groups = &groups;
  shared.base_key = (options.seed | 1) & 0x7fffffff;
  // Slot capacity: the initial ranks plus every reserved join slot.  A
  // reserved slot whose join never fires stays kNeverJoined.
  const int capacity = options.membership != nullptr
                           ? options.membership->capacity(options.workers)
                           : options.workers;
  shared.capacity = capacity;
  shared.final_iterations.assign(static_cast<std::size_t>(capacity), 0);
  shared.worker_stats.assign(static_cast<std::size_t>(capacity), WorkerStats{});
  shared.outcomes.assign(static_cast<std::size_t>(capacity), WorkerOutcome::kFinished);
  for (int w = options.workers; w < capacity; ++w) {
    shared.outcomes[static_cast<std::size_t>(w)] = WorkerOutcome::kNeverJoined;
  }
  std::optional<elastic::MembershipService> membership;
  if (elastic_run) {
    membership.emplace(options.workers, capacity, options.smb_servers);
    shared.membership = &*membership;
  }

  dl::Net eval_net = dl::make_model(options.model_family, options.input);

  // Checkpoint store + resume validation.  A checkpoint from a different
  // run (seed, worker count or model mismatch) is ignored, not an error —
  // the run simply starts fresh.
  std::optional<recovery::CheckpointStore> checkpoint_store;
  std::optional<recovery::TrainCheckpoint> resume_checkpoint;
  std::int64_t resumed_total = 0;
  if (!options.checkpoint.directory.empty()) {
    checkpoint_store.emplace(options.checkpoint.directory);
    shared.checkpoint_store = &*checkpoint_store;
    if (options.checkpoint.resume) {
      resume_checkpoint = checkpoint_store->load_latest();
      if (resume_checkpoint.has_value() &&
          (resume_checkpoint->seed != options.seed ||
           resume_checkpoint->worker_iterations.size() !=
               static_cast<std::size_t>(options.workers) ||
           resume_checkpoint->global_weights.size() != eval_net.param_count())) {
        resume_checkpoint.reset();
      }
      if (resume_checkpoint.has_value()) {
        shared.resume = &*resume_checkpoint;
        shared.checkpoint_sequence.store(resume_checkpoint->sequence,
                                         std::memory_order_relaxed);
        for (const std::int64_t done : resume_checkpoint->worker_iterations) {
          resumed_total += done;
        }
        shared.total_iterations.store(resumed_total, std::memory_order_relaxed);
      }
    }
  }

  const std::int64_t iters_per_epoch_total =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(train_set.size()) /
                                    options.batch_size);
  const std::int64_t per_worker_per_epoch =
      std::max<std::int64_t>(1, iters_per_epoch_total / options.workers);
  shared.target_iterations = per_worker_per_epoch * options.epochs;
  shared.lr_step_iterations =
      std::max<int>(1, static_cast<int>(per_worker_per_epoch) * 4);  // 4-epoch LR steps

  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start = Clock::now();

  // The plan's server faults, in firing order.  Torn writes key on a write
  // ordinal, and corruptions with an `iteration` on a pinned-read ordinal,
  // not a time: arm them on their server up front, before any worker
  // writes or pins.
  std::vector<fault::FaultEvent> server_faults;
  if (options.faults != nullptr) {
    for (int n = 0; n < physical_count; ++n) {
      smb::SmbServer& server = *servers[static_cast<std::size_t>(n)];
      for (const std::vector<fault::FaultEvent>& events :
           {options.faults->server_freezes(n), options.faults->server_fail_stops(n)}) {
        server_faults.insert(server_faults.end(), events.begin(), events.end());
      }
      for (const fault::FaultEvent& event : options.faults->segment_corruptions(n)) {
        if (event.iteration >= 1) {
          server.arm_pinned_corruption(static_cast<std::uint64_t>(event.iteration),
                                       event.sequence, static_cast<int>(event.severity));
        } else {
          server_faults.push_back(event);
        }
      }
      for (const fault::FaultEvent& event : options.faults->torn_writes(n)) {
        server.arm_torn_write(event.sequence, event.severity);
      }
    }
    std::stable_sort(server_faults.begin(), server_faults.end(),
                     [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                       return a.start_seconds < b.start_seconds;
                     });
  }
  shared.hold_at_start = !server_faults.empty();

  // The run's planned control events (recovery, integrity, membership);
  // the executed journal is the part of this plan the run observes.
  const std::vector<fault::ControlEvent> planned = elastic::plan_control_events(
      options.faults != nullptr ? &options.faults->plan() : nullptr, options.recovery,
      options.integrity, options.membership, options.membership_policy, options.workers);
  std::vector<char> respawn(static_cast<std::size_t>(options.workers), 0);
  for (const fault::ControlEvent& event : planned) {
    if (event.action == fault::ControlAction::kWorkerReadmit && event.target >= 0 &&
        event.target < options.workers) {
      respawn[static_cast<std::size_t>(event.target)] = 1;
    }
  }
  const std::vector<elastic::MembershipEvent> joins =
      options.membership != nullptr ? options.membership->joins()
                                    : std::vector<elastic::MembershipEvent>{};
  // The control events this run observes (fault/journal.h): corruptions as
  // they fire, everything else once the run is over.
  std::vector<fault::ControlEvent> observed;

  // --- the run supervisor ---------------------------------------------------
  // This thread is the run's only control-plane actor.  It starts and reaps
  // every worker life, fires the plan's server faults, sweeps heartbeats and
  // stragglers, triggers planned joins and re-admissions, and evaluates W_g
  // at epoch boundaries.  In between it blocks on shared.signal_cv: reports
  // and life exits wake it, and otherwise it sleeps until its next deadline
  // (the next server fault, or the earliest heartbeat or quarantine expiry).
  std::vector<std::thread> lives(static_cast<std::size_t>(capacity));
  int running = 0;
  auto start_life = [&](int w, WorkerLife life, std::int64_t incarnation) {
    lives[static_cast<std::size_t>(w)] = std::thread([&shared, w, life, incarnation] {
      try {
        run_worker(shared, w, life, incarnation);
      } catch (const smb::SmbError&) {
        // An initial life's peers wait for it in the MPI collectives.
        if (life == WorkerLife::kInitial) throw;
        // A late life's attach found every replica of some shard gone.
        shared.outcomes[static_cast<std::size_t>(w)] = WorkerOutcome::kCrashed;
      }
      signal_supervisor(shared, [&shared, w] { shared.exited.push_back(w); });
    });
    ++running;
  };
  for (int w = 0; w < options.workers; ++w) {
    start_life(w, WorkerLife::kInitial, ProgressBoard::kFirstIncarnation);
  }

  TrainResult result;
  std::optional<ProgressBoard> board;  // attached with W_g once it is initialised
  ShardedBuffer global;
  std::vector<float> snapshot;
  std::vector<char> recovered(static_cast<std::size_t>(options.workers), 0);
  std::size_t next_fault = 0;
  std::size_t next_join = 0;
  bool held = shared.hold_at_start;

  // A crashed life is dead at once; a slot the plan re-admits gets its
  // replacement life right away, under a fresh incarnation.
  auto on_crash = [&](int w) {
    board->mark_dead(w);
    if (w >= options.workers || !respawn[static_cast<std::size_t>(w)] || board->stop_raised()) {
      return;
    }
    respawn[static_cast<std::size_t>(w)] = 0;  // one replacement per planned re-admission
    recovered[static_cast<std::size_t>(w)] = 1;
    start_life(w, WorkerLife::kRejoin, board->readmit(w));
  };

  // Fires every server fault due by now.  W_g corruptions wait for W_g's
  // initial write: a flip before it would be re-checksummed away unseen.
  auto fire_due_faults = [&](bool global_initialised) {
    const double now = std::chrono::duration<double>(Clock::now() - wall_start).count();
    for (; next_fault < server_faults.size(); ++next_fault) {
      const fault::FaultEvent& event = server_faults[next_fault];
      if (event.start_seconds > now) return;
      smb::SmbServer& target = *servers[static_cast<std::size_t>(event.target)];
      if (event.kind == fault::FaultKind::kServerFailStop) {
        target.fail_stop();
      } else if (event.kind == fault::FaultKind::kSegmentCorruption) {
        if (!global_initialised) return;
        try {
          if (target.corrupt_floats(shared.base_key, event.sequence,
                                    std::max(1, static_cast<int>(event.severity))) > 0) {
            observed.push_back(
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
  };

  // Evaluates W_g at every epoch-equivalent boundary (total iterations
  // across all workers) the run has crossed.
  const std::int64_t total_target =
      shared.target_iterations * static_cast<std::int64_t>(options.workers);
  const std::int64_t per_epoch_total =
      std::max<std::int64_t>(1, total_target / options.epochs);
  // A resumed run's curve continues after the epochs the interrupted run
  // already covered.
  int next_epoch = 1 + static_cast<int>(resumed_total / per_epoch_total);
  auto catch_up_evals = [&] {
    if (!global.valid()) return;
    const std::int64_t done = shared.total_iterations.load(std::memory_order_relaxed);
    while (next_epoch < options.epochs &&
           done >= static_cast<std::int64_t>(next_epoch) * per_epoch_total) {
      try {
        global.read(snapshot);
      } catch (const smb::SmbUnavailable&) {
        return;  // SMB permanently gone mid-run; keep the curve so far
      } catch (const smb::SmbCorruption&) {
        // W_g is corrupt and nothing could repair it yet: skip this pass
        // and retry, after a worker's rollback has rewritten it.
        return;
      }
      dl::copy_params_from(eval_net, snapshot);
      const EvalResult eval = evaluate(eval_net, test_set);
      result.curve.push_back(EpochMetrics{next_epoch, eval.loss, eval.accuracy});
      ++next_epoch;
    }
  };

  std::uint64_t seen = 0;
  std::vector<int> exited;
  bool global_initialised = false;
  bool attached = false;
  for (;;) {
    for (const int w : exited) {
      lives[static_cast<std::size_t>(w)].join();
      --running;
    }
    // Fire before the hold is recomputed below: held workers re-vote without
    // waking the supervisor, so the pass that fires the last planned fault
    // must also release the hold.
    fire_due_faults(global_initialised);
    std::optional<Clock::time_point> deadline;
    try {
      if (global_initialised && !attached) {
        attached = true;
        board.emplace(*shared.services.front(), shared.base_key + kProgressKeyOffset,
                      options.workers, /*create=*/false);
        global = ShardedBuffer::attach(shared.services, shared.base_key, eval_net.param_count());
        snapshot.resize(global.size());
      }
      if (board.has_value()) {
        for (const int w : exited) {
          if (shared.outcomes[static_cast<std::size_t>(w)] == WorkerOutcome::kCrashed) {
            on_crash(w);
          }
        }
        if (options.heartbeat_timeout_seconds > 0.0) {
          board->sweep_dead(options.heartbeat_timeout_seconds);
        }
        for (const auto& [w, verdict] : board->sweep_stragglers()) {
          if (verdict == elastic::StragglerVerdict::kQuarantine) {
            shared.membership->quarantine(w);
          } else if (verdict == elastic::StragglerVerdict::kReadmit) {
            shared.membership->readmit_contributor(w);
          } else if (verdict == elastic::StragglerVerdict::kEvict) {
            shared.membership->evict(w);
          }
        }
        // Planned cold joins fire once the cohort's progress reaches them.
        if (!board->stop_raised()) {
          const std::int64_t progress = board->max_iterations();
          for (; next_join < joins.size() && joins[next_join].at_iteration <= progress;
               ++next_join) {
            const int w = joins[next_join].worker;
            const std::int64_t incarnation = board->admit(w);
            shared.membership->join(w);
            start_life(w, WorkerLife::kColdJoin, incarnation);
          }
        }
        // Hold the stop while a planned transition is outstanding: a server
        // fault not yet fired, or a quarantined worker not yet readmitted.
        bool hold = next_fault < server_faults.size();
        for (int w = 0; !hold && w < capacity; ++w) {
          hold = board->state_of(w) == ProgressBoard::WorkerState::kQuarantined;
        }
        if (hold != held) {
          board->hold_stop(hold);
          held = hold;
        }
        const double expiry = board->seconds_to_next_expiry(options.heartbeat_timeout_seconds);
        if (std::isfinite(expiry)) {
          deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(std::max(0.0, expiry)));
        }
      }
    } catch (const smb::SmbError&) {
      // Every replica of a shard is gone (the workers' own SMB access fails
      // them the same way), or the segments were released before the
      // attach: no control plane is left to run.
      board.reset();
    }
    exited.clear();
    if (running == 0) break;
    catch_up_evals();

    if (next_fault < server_faults.size() &&
        (global_initialised ||
         server_faults[next_fault].kind != fault::FaultKind::kSegmentCorruption)) {
      const Clock::time_point at =
          wall_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(server_faults[next_fault].start_seconds));
      if (!deadline.has_value() || at < *deadline) deadline = at;
    }
    {
      std::unique_lock lock(shared.signal_mutex);
      const auto woken = [&] { return shared.signals != seen; };
      if (deadline.has_value()) {
        shared.signal_cv.wait_until(lock, *deadline, woken);
      } else {
        shared.signal_cv.wait(lock, woken);
      }
      seen = shared.signals;
      exited.swap(shared.exited);
      global_initialised = shared.global_ready;
    }
  }
  catch_up_evals();

  // End-of-training scrub: catch (and repair) corruption injected after the
  // last exchange, while the supervisor still holds the segments and
  // before the final weights are evaluated.
  if (options.integrity.verify_on_read) {
    for (const auto& ensemble : ensembles) {
      try {
        ensemble->scrub();
      } catch (const smb::SmbError&) {
        // every replica gone: nothing left to scrub
      }
    }
  }

  if (global.valid()) {
    try {
      global.read(snapshot);
      dl::copy_params_from(eval_net, snapshot);
      const EvalResult final_eval = evaluate(eval_net, test_set);
      result.final_accuracy = final_eval.accuracy;
      result.final_loss = final_eval.loss;
      if (result.curve.empty() || result.curve.back().epoch < options.epochs) {
        result.curve.push_back(
            EpochMetrics{options.epochs, final_eval.loss, final_eval.accuracy});
      }
      global.release();
    } catch (const smb::SmbError&) {
      // SMB permanently gone: no final evaluation, nothing to release
    }
  }
  if (board.has_value()) {
    try {
      board->release();
    } catch (const smb::SmbError&) {
      // the board's server fail-stopped: nothing to release
    }
  }

  result.wall_seconds = std::chrono::duration<double>(Clock::now() - wall_start).count();
  result.iterations_per_worker = shared.final_iterations;
  result.worker_stats = std::move(shared.worker_stats);
  result.worker_outcomes = shared.outcomes;
  for (int w = 0; w < capacity; ++w) {
    const WorkerOutcome outcome = shared.outcomes[static_cast<std::size_t>(w)];
    if (outcome == WorkerOutcome::kCrashed || outcome == WorkerOutcome::kFenced ||
        outcome == WorkerOutcome::kEvicted) {
      result.dead_workers.push_back(w);
    }
    if (w < options.workers && recovered[static_cast<std::size_t>(w)]) {
      result.recovered_workers.push_back(w);
      fault::record(observed, fault::ControlAction::kWorkerReadmit, w);
    }
  }
  if (membership.has_value()) {
    result.joined_workers = membership->joined();
    result.drained_workers = membership->drained();
    result.rebalances = membership->rebalances();
    result.quarantine_events = membership->quarantine_events();
    const std::vector<fault::ControlEvent> changes = membership->journal();
    observed.insert(observed.end(), changes.begin(), changes.end());
  }
  result.checkpoints_taken = shared.checkpoints_taken.load(std::memory_order_relaxed);
  result.resumed_iterations = resumed_total;

  // Recovery and integrity observability.  Replica r of shard s is physical
  // server s * smb_replicas + r.  A failover names the replica that died
  // while active; detections and torn writes come from each physical
  // server; the ensembles report repairs without the replica they rewrote,
  // so each repaired marker is attributed to the replica of its shard whose
  // server detected it.
  for (std::size_t s = 0; s < ensembles.size(); ++s) {
    result.smb_failovers += static_cast<std::int64_t>(ensembles[s]->failover_count());
    for (const int replica : ensembles[s]->failover_log()) {
      fault::record(observed, fault::ControlAction::kSmbFailover,
                    static_cast<int>(s) * options.smb_replicas + replica);
    }
  }
  std::vector<std::uint64_t> detected;  // distinct markers across the servers
  for (int n = 0; n < physical_count; ++n) {
    const smb::SmbServer& server = *servers[static_cast<std::size_t>(n)];
    for (const std::uint64_t marker : server.detected_markers()) {
      observed.push_back({fault::ControlAction::kCorruptionDetected, n, marker});
      if (std::find(detected.begin(), detected.end(), marker) == detected.end()) {
        detected.push_back(marker);
      }
    }
    for (const std::uint64_t marker : server.torn_applied_markers()) {
      observed.push_back({fault::ControlAction::kTornWriteApplied, n, marker});
    }
    for (const std::uint64_t marker : server.pinned_corruption_markers()) {
      observed.push_back({fault::ControlAction::kCorruptionInjected, n, marker});
    }
  }
  for (std::size_t s = 0; s < ensembles.size(); ++s) {
    result.integrity_repairs += static_cast<std::int64_t>(ensembles[s]->repairs());
    result.scrub_passes += static_cast<std::int64_t>(ensembles[s]->scrub_passes());
    for (const std::uint64_t marker : ensembles[s]->repaired_markers()) {
      for (int r = 0; r < options.smb_replicas; ++r) {
        const int n = static_cast<int>(s) * options.smb_replicas + r;
        const fault::ControlEvent detection{fault::ControlAction::kCorruptionDetected, n, marker};
        if (std::find(observed.begin(), observed.end(), detection) != observed.end()) {
          observed.push_back({fault::ControlAction::kCorruptionRepaired, n, marker});
        }
      }
    }
  }
  result.corruptions_detected = static_cast<std::int64_t>(detected.size());
  result.integrity_rollbacks = shared.integrity_rollbacks.load(std::memory_order_relaxed);

  // The executed journal: the planned events this run observed, in planned
  // order.  The sim twin keeps its own observations of the same plan, so
  // equal journals mean both stacks took the same control actions.
  result.journal = fault::executed(planned, observed);
  return result;
}

}  // namespace shmcaffe::core
