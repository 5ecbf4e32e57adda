// Shared training-progress board over SMB counters (§III-E).
//
// BVLC Caffe stops after a fixed iteration count, so asynchronous workers
// with computation-speed deviations finish at different times while still
// occupying their GPUs.  ShmCaffe publishes every worker's completed
// iteration count in an SMB counter segment; workers consult it each
// iteration and align their termination by one of three criteria:
//   1. everyone stops when the master worker reaches its target,
//   2. everyone stops as soon as the first worker reaches its target,
//   3. everyone stops when the average iteration count reaches the target.
//
// Fault tolerance: every worker additionally owns a heartbeat slot it
// stamps on each report.  The run's supervisor sweeps the board; a worker
// whose heartbeat is older than the timeout is declared dead and excluded
// from the min/mean reductions and the termination criteria (with the
// master role falling back to the lowest-indexed live worker), so a
// fail-stopped worker costs only its own contribution instead of hanging
// the run.  A declared-dead worker that wakes up again (a stall that
// outlived the timeout) finds itself fenced and must exit — dead is final
// *for that life*.  Re-admission (the recovery layer) gives the worker slot
// a fresh life under a new incarnation number: readmit() flips the slot
// back to alive and bumps the incarnation, and every report/heartbeat
// carries the caller's incarnation so writes from the previous life are
// ignored (stale heartbeats cannot resurrect a fenced worker, stale reports
// cannot corrupt the counters the termination criteria read).
//
// Elastic membership (the elastic layer): the board is created with a
// *capacity* that may exceed the initial worker count.  Slots beyond the
// initial workers start kAbsent (excluded from every reduction) and are
// claimed by cold joins through admit(), which — like readmit() — hands the
// new life a fresh incarnation; a join therefore never reuses a dead
// rank's slot.  Voluntary leavers are marked kDrained, stragglers are
// demoted to kQuarantined (still training, no longer contributing to
// reductions or termination) and promoted back by sweep_stragglers(), and
// repeated offenders end kEvicted.  A straggler is a worker silent — no
// report, no heartbeat — for at least the threshold watch_stragglers()
// armed (elastic/straggler.h).  A stamp that ends such a silence counts it
// on the board, so the next sweep judges it even if the worker reported
// again before any sweep saw it silent.
//
// Termination hold: while the supervisor holds the stop (hold_stop) a met
// criterion votes kHold instead of raising the stop flag, so the run cannot
// end while a planned transition is still outstanding.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ordered_mutex.h"
#include "core/config.h"
#include "elastic/straggler.h"
#include "smb/service.h"

namespace shmcaffe::core {

class ProgressBoard {
 public:
  /// Liveness/participation state of a worker slot, stored on the board.
  enum class WorkerState : std::int64_t {
    kAlive = 0,
    kFinished = 1,     ///< completed training normally
    kDead = 2,         ///< declared dead (crashed or missed heartbeats) — final
    kAbsent = 3,       ///< capacity slot nobody has joined yet
    kDrained = 4,      ///< left the run voluntarily (elastic drain)
    kQuarantined = 5,  ///< straggler: training but not contributing
    kEvicted = 6,      ///< removed after repeated silences — final
  };

  /// A worker's termination vote after completing an iteration.
  enum class Vote : std::int64_t {
    kContinue = 0,  ///< keep training
    kHold = 1,      ///< the criterion is met but the stop is held: wait, heartbeating
    kStop = 2,      ///< stop now
  };

  /// Incarnation of every worker's first life.  0 is the "unfenced"
  /// sentinel legacy callers pass, so real incarnations start at 1.
  static constexpr std::int64_t kFirstIncarnation = 1;

  /// Master constructs with create=true; slaves attach with create=false.
  /// `capacity` (create only; 0 = `workers`) reserves slots beyond the
  /// initial worker count for cold joins — they start kAbsent.  Attach
  /// derives the capacity from the existing segment.
  ProgressBoard(smb::SmbService& server, smb::ShmKey key, int workers, bool create,
                int capacity = 0);

  /// Publishes `iterations` completed by `worker` and stamps its heartbeat.
  /// A nonzero `incarnation` that is no longer the worker's current one
  /// marks a stale life: the report is dropped.
  void report(int worker, std::int64_t iterations, std::int64_t incarnation = 0);

  /// Stamps `worker`'s heartbeat without changing its iteration count (for
  /// long waits — pacing loops, held stops — between reports).  Stale
  /// incarnations are dropped like stale reports.
  void heartbeat(int worker, std::int64_t incarnation = 0);

  [[nodiscard]] std::int64_t iterations_of(int worker) const;
  /// Reductions over *contributing* workers (alive or finished): dead,
  /// absent, drained, quarantined, and evicted slots are excluded.
  [[nodiscard]] std::int64_t min_iterations() const;
  [[nodiscard]] std::int64_t max_iterations() const;
  [[nodiscard]] double mean_iterations() const;

  // --- liveness ----------------------------------------------------------

  void mark_finished(int worker);
  /// Fences `worker`: marks it dead and zeroes its iteration count and
  /// heartbeat, so a slot that is later re-admitted never contributes the
  /// dead life's progress.
  void mark_dead(int worker);
  [[nodiscard]] WorkerState state_of(int worker) const;
  [[nodiscard]] bool is_dead(int worker) const {
    return state_of(worker) == WorkerState::kDead;
  }
  /// Total slots (initial workers + join capacity).
  [[nodiscard]] int capacity() const { return capacity_; }

  /// Declares every alive or quarantined worker whose heartbeat is older
  /// than `timeout_seconds` dead; returns how many were newly declared.
  /// Sweeps are serialised: if another thread is already scanning, returns
  /// 0 immediately (that sweep covers this caller too).
  int sweep_dead(double timeout_seconds);

  /// Seconds until the next silence deadline: the earliest moment an alive
  /// or quarantined worker's heartbeat outlives `heartbeat_timeout_seconds`
  /// (<= 0: never), or an alive worker's silence reaches the armed
  /// straggler threshold.  Infinity when no worker is timed (slots in
  /// startup grace are not); <= 0 when a deadline has already passed.
  [[nodiscard]] double seconds_to_next_expiry(double heartbeat_timeout_seconds) const;

  /// The master role for kMasterFinishes: the lowest-indexed contributing
  /// worker (0 while the real master lives).
  [[nodiscard]] int acting_master() const;

  // --- re-admission (recovery layer) -------------------------------------

  /// Current incarnation of `worker`'s board slot (starts at
  /// kFirstIncarnation; bumped by every readmit()).
  [[nodiscard]] std::int64_t incarnation_of(int worker) const;

  /// True if `incarnation` is still `worker`'s live incarnation.  0 (the
  /// legacy sentinel) is always considered current.
  [[nodiscard]] bool incarnation_is_current(int worker, std::int64_t incarnation) const {
    return incarnation == 0 || incarnation == incarnation_of(worker);
  }

  /// Re-admits a dead worker slot: bumps the incarnation (fencing the
  /// previous life's heartbeats and reports), resets the slot to alive with
  /// zero iterations and startup heartbeat grace, and returns the new
  /// incarnation the re-admitted worker must stamp everything with.
  std::int64_t readmit(int worker);

  // --- elastic membership -------------------------------------------------

  /// Claims a kAbsent capacity slot for a cold join: same slot reset as
  /// readmit() under a freshly bumped incarnation, which the joiner must
  /// stamp everything with.
  std::int64_t admit(int worker);

  /// Marks a voluntary leaver; it stops contributing to every reduction.
  void mark_drained(int worker);
  /// Marks a straggler evicted (final, like kDead).
  void mark_evicted(int worker);

  /// Arms the straggler detector with `policy`'s silence threshold and
  /// eviction count.  Arm before any worker reports: only stamps made after
  /// arming count the silences they end.
  void watch_stragglers(const elastic::MembershipPolicy& policy);

  /// The straggler detector (elastic::judge_silences over every alive or
  /// quarantined slot): quarantines a worker silent for at least the armed
  /// threshold — or evicts it on its Nth such silence — and readmits a
  /// quarantined worker once it has reported again.  A no-op until
  /// watch_stragglers() arms it; serialised like sweep_dead (concurrent
  /// callers skip).  Returns the transitions applied so the caller can
  /// mirror them into the MembershipService.
  std::vector<elastic::StragglerTransition> sweep_stragglers();

  // --- termination --------------------------------------------------------

  /// Raises the global stop flag (idempotent).
  void raise_stop();
  [[nodiscard]] bool stop_raised() const;

  /// Holds (or releases) termination: while held, a met criterion votes
  /// kHold instead of raising the stop flag.
  void hold_stop(bool held);
  [[nodiscard]] bool stop_held() const;

  /// Reports `my_iterations` of `target_iterations` for `worker` and votes.
  /// A stale incarnation, a raised stop flag, or a worker that was itself
  /// declared dead or evicted (fenced) votes kStop.  A quarantined worker
  /// neither stops nor decides for the cohort: it votes kContinue until the
  /// stop flag is raised.  Otherwise a met criterion raises the stop flag
  /// and votes kStop — or votes kHold while the stop is held.
  Vote vote(TerminationCriterion criterion, int worker, std::int64_t my_iterations,
            std::int64_t target_iterations, std::int64_t incarnation = 0);

  /// True when vote() says kStop.  A positive `heartbeat_timeout_seconds`
  /// first stamps the caller and sweeps for dead peers.
  bool should_stop(TerminationCriterion criterion, int worker, std::int64_t my_iterations,
                   std::int64_t target_iterations, double heartbeat_timeout_seconds = 0.0,
                   std::int64_t incarnation = 0);

  void release();

 private:
  // Slot layout over capacity c: kHeaderSlots run-wide slots, then one
  // column of c per-worker slots for each Column.
  enum Header : std::size_t {
    kStopFlag,           ///< nonzero once the stop is raised
    kStopHold,           ///< nonzero while the supervisor holds the stop
    kSilenceThreshold,   ///< armed straggler threshold, ns (0: detector off)
    kEvictAfter,         ///< the Nth silence evicts
    kHeaderSlots,
  };
  enum Column : std::size_t {
    kIterations,      ///< completed iterations
    kStamps,          ///< last heartbeat, steady-clock ns (0: startup grace)
    kStates,          ///< WorkerState
    kIncarnations,    ///< current life's incarnation
    kEndedSilences,   ///< silences past the threshold a stamp ended, unjudged
    kViolations,      ///< silences judged so far
    kColumns,
  };
  [[nodiscard]] std::size_t slot(Column column, int worker) const {
    return kHeaderSlots + static_cast<std::size_t>(column) * static_cast<std::size_t>(capacity_) +
           static_cast<std::size_t>(worker);
  }

  /// True for states included in the min/mean/master reductions.
  [[nodiscard]] bool contributing(int worker) const {
    const WorkerState state = state_of(worker);
    return state == WorkerState::kAlive || state == WorkerState::kFinished;
  }
  [[nodiscard]] bool criterion_met(TerminationCriterion criterion, int worker,
                                   std::int64_t my_iterations,
                                   std::int64_t target_iterations) const;
  void set_state(int worker, WorkerState state);
  /// Ends a life in final `state`: its progress stops contributing and its
  /// last heartbeat must not look fresh to a later sweep.
  void fence(int worker, WorkerState state);

  /// Stamps `worker`'s heartbeat (the shared body of report() and
  /// heartbeat()), counting the silence it ends if that reached the armed
  /// straggler threshold.
  void stamp(int worker);

  /// Resets a slot for a fresh life under a bumped incarnation (the shared
  /// body of readmit() and admit()).
  std::int64_t fresh_life(int worker);

  /// The scan body of sweep_dead(); requires sweep_mutex_ held.
  int sweep_dead_locked(double timeout_seconds) SHMCAFFE_REQUIRES(sweep_mutex_);
  /// The scan body of sweep_stragglers(); requires sweep_mutex_ held.
  std::vector<elastic::StragglerTransition> sweep_stragglers_locked()
      SHMCAFFE_REQUIRES(sweep_mutex_);

  // server_/capacity_ are set once in the ctor; handle_ is only reset by
  // release() (caller-serialised teardown), so none are sweep-guarded.
  smb::SmbService* server_ SHMCAFFE_UNGUARDED;
  smb::Handle handle_ SHMCAFFE_UNGUARDED;
  int capacity_ SHMCAFFE_UNGUARDED;
  /// Serialises dead-worker and straggler sweeps: one sweep at a time is
  /// enough — concurrent callers try-lock and skip instead of queueing
  /// behind the scan.  Held across SMB counter reads/writes, hence ranked
  /// below smb.server.table.
  common::OrderedMutex sweep_mutex_{"core.progress_board.sweep",
                                    common::lockrank::kProgressBoardSweep};
};

}  // namespace shmcaffe::core
