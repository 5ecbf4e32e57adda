// Elastic membership for a live training run.
//
// The recovery layer can only *replace* a crashed worker under a fixed
// topology.  This layer generalises that into full membership elasticity:
// workers may *cold-join* a running SEASGD session (attach to the SMB, adopt
// W_g, take a fresh progress-board slot), *drain* out of it voluntarily
// (flush the pending increment, leave cleanly), or be *evicted* after
// repeated straggler violations — all without restarting the run.
//
// Three pieces:
//
//   * MembershipPlan — the deterministic join/drain schedule a run follows
//     (iteration-indexed, like a FaultPlan).  Both training stacks consume
//     the same plan.
//   * membership_schedule() — the membership expander of the control-event
//     journal (fault/journal.h): the joins, drains, straggler
//     quarantine/readmit/evict chains (derived from injected stalls long
//     enough to trip the detector) and shard rebalances the run *will*
//     execute.  plan_control_events() composes it with the recovery and
//     integrity expanders into the one plan both stacks check what they
//     executed against.
//   * MembershipService — the run-time registry both stacks drive: it owns
//     the monotonic *membership epoch* (layered on recovery/epoch.h's
//     ServiceEpoch fencing: every change of the member set bumps it, so
//     shard routing cached under an older epoch is stale by construction),
//     the deterministic worker->home-shard map that rebalances on every
//     membership change, and the journal of the membership events it
//     observed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ordered_mutex.h"
#include "fault/fault_plan.h"
#include "fault/journal.h"
#include "recovery/epoch.h"
#include "recovery/integrity.h"
#include "recovery/schedule.h"

namespace shmcaffe::elastic {

/// Generation counter of the member set.  A direct layering on the
/// replicated-SMB service epoch: compare only through recovery/epoch.h's
/// helpers (the `no-naked-epoch` lint rule applies here too).
using MembershipEpoch = recovery::ServiceEpoch;

// --- the plan ---------------------------------------------------------------

enum class MembershipEventKind : std::uint8_t {
  kJoin,   ///< slot `worker` cold-joins once board max-iterations reaches `at_iteration`
  kDrain,  ///< worker `worker` drains at the start of its own iteration `at_iteration`
};

[[nodiscard]] const char* to_string(MembershipEventKind kind);

/// One planned membership event.  Join slots are explicit worker ids at or
/// beyond the initial worker count — a cold join never reuses a dead rank's
/// slot (the board gives it a fresh slot under a new incarnation instead).
struct MembershipEvent {
  MembershipEventKind kind = MembershipEventKind::kJoin;
  int worker = -1;
  std::int64_t at_iteration = -1;

  friend bool operator==(const MembershipEvent&, const MembershipEvent&) = default;
};

/// An ordered, deterministic join/drain schedule (the membership analogue
/// of fault::FaultPlan).  Plain container; both stacks consume one instance.
class MembershipPlan {
 public:
  MembershipPlan() = default;
  explicit MembershipPlan(std::vector<MembershipEvent> events)
      : events_(std::move(events)) {}

  void add(MembershipEvent event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<MembershipEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Join events sorted by (at_iteration, worker); drains likewise.
  [[nodiscard]] std::vector<MembershipEvent> joins() const;
  [[nodiscard]] std::vector<MembershipEvent> drains() const;

  /// The iteration at which `worker` drains, or -1 if it never does.
  [[nodiscard]] std::int64_t drain_iteration(int worker) const;

  /// Board capacity a run honouring this plan needs: the initial worker
  /// count plus every join slot (max join slot + 1 when that is larger).
  [[nodiscard]] int capacity(int initial_workers) const;

 private:
  std::vector<MembershipEvent> events_;
};

// --- the policy -------------------------------------------------------------

/// Straggler-quarantine bounds.  The detector judges heartbeat silence in
/// seconds (elastic/straggler.h says why neither raw staleness nor a
/// projection of it works under the trainer's max_iteration_skew pacing).
/// The simulated stack's join, drain and rebalance latencies are constants
/// of core/sim_shmcaffe.cc; the functional stack pays their real cost.
struct MembershipPolicy {
  /// Master switch for the straggler detector (quarantine + eviction).
  /// Off by default: fault-injection suites rely on stalls being survived
  /// or fenced by the heartbeat sweep alone.
  bool straggler_detection = false;
  /// Staleness accounting (simulated stack): fresh progress further than
  /// this many iterations behind the cohort maximum counts as one
  /// staleness violation.
  double staleness_bound_iterations = 100.0;
  /// The detector's threshold: a worker silent (no report, no heartbeat)
  /// for at least this long is quarantined, and an injected stall at least
  /// this long is a planned quarantine (membership_schedule).
  double quarantine_stall_seconds = 0.35;
  /// The Nth silence evicts instead of quarantining.
  int evict_after_violations = 3;
};

// --- the planned control events ---------------------------------------------

/// Expands (plan, faults, policy) into the membership events the run will
/// execute.  Joins and drains come from the plan; quarantine / readmit /
/// evict chains are derived from the fault plan's worker stalls of at least
/// policy.quarantine_stall_seconds (violation N evicts when N reaches
/// policy.evict_after_violations; stalls after a worker's earliest crash,
/// after its drain, or after its eviction derive nothing — the worker is
/// gone).  Every join / drain / evict is followed by its kShardRebalance.
/// Ordered by (trigger iteration, action, target): the board max-iterations
/// for joins, the worker's own iteration for drains and stall-derived
/// transitions.
[[nodiscard]] std::vector<fault::ControlEvent> membership_schedule(
    const MembershipPlan* plan, const fault::FaultPlan* faults, const MembershipPolicy& policy,
    int initial_workers);

/// The planned control-event journal of a run: the recovery, integrity and
/// membership expanders, composed in that fixed domain order.  A null
/// fault plan plans no recovery or integrity events; a null membership plan
/// plans only the straggler chains.  Both stacks keep the events of this
/// plan they observed (fault::executed), so equal results mean identical
/// control histories.
[[nodiscard]] SHMCAFFE_DETERMINISTIC SHMCAFFE_NONBLOCKING std::vector<fault::ControlEvent>
plan_control_events(const fault::FaultPlan* faults, const recovery::RecoveryPolicy& recovery,
                    const recovery::IntegrityPolicy& integrity, const MembershipPlan* membership,
                    const MembershipPolicy& membership_policy, int initial_workers);

// --- shard assignment -------------------------------------------------------

/// Deterministic balanced home-shard map over the sorted live member list:
/// member i of n gets shard (i * shards) / n (contiguous blocks, so a
/// single join or leave reassigns the fewest workers).  A worker's home
/// shard is where its SEASGD fan-out *starts* — rotating the start spreads
/// concurrent exchanges across the SMB shard ensembles.
[[nodiscard]] SHMCAFFE_NONBLOCKING std::vector<int> shard_assignments(
    std::span<const int> members_sorted, int shards);

// --- the run-time registry --------------------------------------------------

/// Thread-safe membership registry both stacks drive as changes execute.
/// Owns the membership epoch, the home-shard map (rebalanced on every
/// membership change), and the journal of the membership events it
/// executed, from which the report's counters derive.  All transitions are
/// idempotent per (worker, state): joining an active worker or draining a
/// drained one is a no-op.
class MembershipService {
 public:
  /// `initial_workers` ranks are active from the start; slots in
  /// [initial_workers, capacity) are absent until they join.
  MembershipService(int initial_workers, int capacity, int shards);

  /// Membership changes; each bumps the epoch and rebalances the
  /// home-shard map.  Returns the epoch after the change.
  MembershipEpoch join(int worker);
  MembershipEpoch drain(int worker);
  MembershipEpoch evict(int worker);

  /// Straggler transitions; quarantine does NOT change the member set (the
  /// worker is demoted, not removed), so the epoch and shard map hold.
  void quarantine(int worker);
  void readmit_contributor(int worker);

  [[nodiscard]] MembershipEpoch epoch() const;
  /// The shard index worker `worker`'s SEASGD fan-out starts at (0 for
  /// workers outside the member set).
  [[nodiscard]] int home_shard(int worker) const;

  /// The membership part of a run's report, derived from the journal:
  /// fills `report`'s joined and drained workers (ascending), its
  /// rebalances (one home-shard map recomputation per membership change)
  /// and quarantine demotions, and appends every membership event executed
  /// so far to `observed`, in execution order.  Both stacks and the
  /// elastic baseline star report through it.
  void report(fault::ControlReport& report, std::vector<fault::ControlEvent>& observed) const;
  /// Worker->shard assignments that changed across all rebalances.
  [[nodiscard]] std::int64_t reassignments() const;

 private:
  enum class Status : std::uint8_t { kAbsent, kActive, kDrained, kEvicted };

  /// Moves `worker` to `next`, bumps the epoch, journals `action`, and
  /// rebalances; returns the new epoch.  Requires mutex_ held.
  MembershipEpoch change_locked(int worker, Status next, fault::ControlAction action)
      SHMCAFFE_REQUIRES(mutex_);
  /// Recomputes the home-shard map after a membership change and journals
  /// the kShardRebalance; requires mutex_ held.
  void rebalance_locked(int trigger) SHMCAFFE_REQUIRES(mutex_);
  [[nodiscard]] std::vector<int> members_locked() const SHMCAFFE_REQUIRES(mutex_);
  /// The targets of the journal's `action` events, ascending.
  [[nodiscard]] std::vector<int> targets_locked(fault::ControlAction action) const
      SHMCAFFE_REQUIRES(mutex_);

  /// Serialises every membership transition and query.  Held across pure
  /// in-memory state only (no SMB access), so it ranks between the
  /// progress-board sweep and the sharded-buffer table.
  mutable common::OrderedMutex mutex_{"elastic.membership.state",
                                      common::lockrank::kElasticMembership};
  int capacity_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  int shards_ SHMCAFFE_GUARDED_BY(mutex_) = 1;
  std::vector<Status> status_ SHMCAFFE_GUARDED_BY(mutex_);
  std::vector<int> home_shard_ SHMCAFFE_GUARDED_BY(mutex_);
  MembershipEpoch epoch_ SHMCAFFE_GUARDED_BY(mutex_) = recovery::kInitialServiceEpoch;
  std::int64_t reassignments_ SHMCAFFE_GUARDED_BY(mutex_) = 0;
  std::vector<fault::ControlEvent> journal_ SHMCAFFE_GUARDED_BY(mutex_);
};

}  // namespace shmcaffe::elastic
