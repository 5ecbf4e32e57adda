#include "elastic/membership.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

namespace shmcaffe::elastic {

const char* to_string(MembershipEventKind kind) {
  switch (kind) {
    case MembershipEventKind::kJoin: return "join";
    case MembershipEventKind::kDrain: return "drain";
  }
  return "unknown";
}

namespace {

bool event_order(const MembershipEvent& a, const MembershipEvent& b) {
  if (a.at_iteration != b.at_iteration) return a.at_iteration < b.at_iteration;
  return a.worker < b.worker;
}

std::vector<MembershipEvent> filtered_sorted(const std::vector<MembershipEvent>& events,
                                             MembershipEventKind kind) {
  std::vector<MembershipEvent> out;
  for (const MembershipEvent& event : events) {
    if (event.kind == kind) out.push_back(event);
  }
  std::sort(out.begin(), out.end(), event_order);
  return out;
}

}  // namespace

std::vector<MembershipEvent> MembershipPlan::joins() const {
  return filtered_sorted(events_, MembershipEventKind::kJoin);
}

std::vector<MembershipEvent> MembershipPlan::drains() const {
  return filtered_sorted(events_, MembershipEventKind::kDrain);
}

std::int64_t MembershipPlan::drain_iteration(int worker) const {
  std::int64_t at = -1;
  for (const MembershipEvent& event : events_) {
    if (event.kind != MembershipEventKind::kDrain || event.worker != worker) continue;
    if (at < 0 || event.at_iteration < at) at = event.at_iteration;
  }
  return at;
}

int MembershipPlan::capacity(int initial_workers) const {
  int capacity = initial_workers;
  for (const MembershipEvent& event : events_) {
    if (event.kind == MembershipEventKind::kJoin) {
      capacity = std::max(capacity, event.worker + 1);
    }
  }
  return capacity;
}

std::vector<fault::ControlEvent> membership_schedule(const MembershipPlan* plan,
                                                     const fault::FaultPlan* faults,
                                                     const MembershipPolicy& policy,
                                                     int initial_workers) {
  using fault::ControlAction;
  struct Transition {
    std::int64_t at_iteration;
    ControlAction action;
    int target;
  };
  std::vector<Transition> transitions;
  if (plan != nullptr) {
    for (const MembershipEvent& event : plan->joins()) {
      // A join never reuses an initial rank's slot; out-of-range plans
      // derive nothing rather than corrupting the schedule.
      if (event.worker < initial_workers) continue;
      transitions.push_back({event.at_iteration, ControlAction::kWorkerJoin, event.worker});
    }
    for (const MembershipEvent& event : plan->drains()) {
      if (event.worker < 0 || event.worker >= initial_workers) continue;
      transitions.push_back({event.at_iteration, ControlAction::kWorkerDrain, event.worker});
    }
  }

  // Straggler chains: every injected stall long enough to trip the detector
  // is one planned staleness violation for its worker, in iteration order —
  // quarantine + readmit until the eviction threshold, then a single evict.
  if (policy.straggler_detection && faults != nullptr) {
    std::map<int, std::int64_t> first_crash;
    std::map<int, std::vector<fault::FaultEvent>> stalls;
    for (const fault::FaultEvent& event : faults->events()) {
      if (event.kind == fault::FaultKind::kWorkerCrash) {
        const auto it = first_crash.find(event.target);
        if (it == first_crash.end() || event.iteration < it->second) {
          first_crash[event.target] = event.iteration;
        }
      } else if (event.kind == fault::FaultKind::kWorkerStall &&
                 event.duration_seconds >= policy.quarantine_stall_seconds) {
        stalls[event.target].push_back(event);
      }
    }
    for (auto& [worker, events] : stalls) {
      std::sort(events.begin(), events.end(),
                [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                  return a.iteration < b.iteration;
                });
      const auto crash = first_crash.find(worker);
      const std::int64_t crash_at = crash == first_crash.end() ? -1 : crash->second;
      const std::int64_t drain_at =
          plan != nullptr ? plan->drain_iteration(worker) : -1;
      int violations = 0;
      for (const fault::FaultEvent& stall : events) {
        // A crashed, drained, or evicted worker stalls no more.
        if (crash_at >= 0 && stall.iteration >= crash_at) break;
        if (drain_at >= 0 && stall.iteration >= drain_at) break;
        ++violations;
        if (violations >= policy.evict_after_violations) {
          transitions.push_back({stall.iteration, ControlAction::kEvict, worker});
          break;
        }
        transitions.push_back({stall.iteration, ControlAction::kQuarantine, worker});
        transitions.push_back({stall.iteration, ControlAction::kReadmitContributor, worker});
      }
    }
  }

  // (at_iteration, action, target): ControlAction declares the membership
  // actions in tie-break order (a quarantine precedes its same-iteration
  // readmit).
  std::sort(transitions.begin(), transitions.end(), [](const Transition& a, const Transition& b) {
    if (a.at_iteration != b.at_iteration) return a.at_iteration < b.at_iteration;
    if (a.action != b.action) return a.action < b.action;
    return a.target < b.target;
  });

  std::vector<fault::ControlEvent> schedule;
  for (const Transition& transition : transitions) {
    fault::record(schedule, transition.action, transition.target);
    if (transition.action == ControlAction::kWorkerJoin ||
        transition.action == ControlAction::kWorkerDrain ||
        transition.action == ControlAction::kEvict) {
      fault::record(schedule, ControlAction::kShardRebalance, transition.target);
    }
  }
  return schedule;
}

std::vector<fault::ControlEvent> plan_control_events(const fault::FaultPlan* faults,
                                                     const recovery::RecoveryPolicy& recovery,
                                                     const recovery::IntegrityPolicy& integrity,
                                                     const MembershipPlan* membership,
                                                     const MembershipPolicy& membership_policy,
                                                     int initial_workers) {
  std::vector<fault::ControlEvent> plan;
  if (faults != nullptr) {
    plan = recovery::recovery_schedule(*faults, recovery);
    const std::vector<fault::ControlEvent> corruptions =
        recovery::integrity_schedule(*faults, integrity);
    plan.insert(plan.end(), corruptions.begin(), corruptions.end());
  }
  const std::vector<fault::ControlEvent> changes =
      membership_schedule(membership, faults, membership_policy, initial_workers);
  plan.insert(plan.end(), changes.begin(), changes.end());
  return plan;
}

std::vector<int> shard_assignments(std::span<const int> members_sorted, int shards) {
  if (shards < 1) throw std::invalid_argument("shard_assignments: shards must be >= 1");
  const int n = static_cast<int>(members_sorted.size());
  std::vector<int> assignment(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    assignment[static_cast<std::size_t>(i)] = static_cast<int>(
        (static_cast<std::int64_t>(i) * shards) / std::max(1, n));
  }
  return assignment;
}

MembershipService::MembershipService(int initial_workers, int capacity, int shards) {
  if (initial_workers < 1) {
    throw std::invalid_argument("MembershipService: initial_workers must be >= 1");
  }
  if (capacity < initial_workers) {
    throw std::invalid_argument("MembershipService: capacity < initial_workers");
  }
  if (shards < 1) throw std::invalid_argument("MembershipService: shards must be >= 1");
  std::scoped_lock lock(mutex_);
  capacity_ = capacity;
  shards_ = shards;
  status_.assign(static_cast<std::size_t>(capacity), Status::kAbsent);
  for (int w = 0; w < initial_workers; ++w) {
    status_[static_cast<std::size_t>(w)] = Status::kActive;
  }
  home_shard_.assign(static_cast<std::size_t>(capacity), 0);
  const std::vector<int> members = members_locked();
  const std::vector<int> assignment = shard_assignments(members, shards_);
  for (std::size_t i = 0; i < members.size(); ++i) {
    home_shard_[static_cast<std::size_t>(members[i])] = assignment[i];
  }
}

std::vector<int> MembershipService::members_locked() const SHMCAFFE_REQUIRES(mutex_) {
  SHMCAFFE_ASSERT_HELD(mutex_);
  std::vector<int> members;
  for (int w = 0; w < capacity_; ++w) {
    if (status_[static_cast<std::size_t>(w)] == Status::kActive) members.push_back(w);
  }
  return members;
}

void MembershipService::rebalance_locked(int trigger) SHMCAFFE_REQUIRES(mutex_) {
  SHMCAFFE_ASSERT_HELD(mutex_);
  const std::vector<int> members = members_locked();
  std::vector<int> next(static_cast<std::size_t>(capacity_), 0);
  if (!members.empty()) {
    const std::vector<int> assignment = shard_assignments(members, shards_);
    for (std::size_t i = 0; i < members.size(); ++i) {
      next[static_cast<std::size_t>(members[i])] = assignment[i];
    }
  }
  for (int w = 0; w < capacity_; ++w) {
    if (next[static_cast<std::size_t>(w)] != home_shard_[static_cast<std::size_t>(w)]) {
      ++reassignments_;
    }
  }
  home_shard_ = std::move(next);
  fault::record(journal_, fault::ControlAction::kShardRebalance, trigger);
}

MembershipEpoch MembershipService::change_locked(int worker, Status next,
                                                 fault::ControlAction action)
    SHMCAFFE_REQUIRES(mutex_) {
  SHMCAFFE_ASSERT_HELD(mutex_);
  status_[static_cast<std::size_t>(worker)] = next;
  epoch_ = recovery::next_service_epoch(epoch_);
  fault::record(journal_, action, worker);
  rebalance_locked(worker);
  return epoch_;
}

MembershipEpoch MembershipService::join(int worker) {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return epoch_;
  if (status_[static_cast<std::size_t>(worker)] == Status::kActive) return epoch_;  // idempotent
  return change_locked(worker, Status::kActive, fault::ControlAction::kWorkerJoin);
}

MembershipEpoch MembershipService::drain(int worker) {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return epoch_;
  if (status_[static_cast<std::size_t>(worker)] != Status::kActive) return epoch_;
  return change_locked(worker, Status::kDrained, fault::ControlAction::kWorkerDrain);
}

MembershipEpoch MembershipService::evict(int worker) {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return epoch_;
  if (status_[static_cast<std::size_t>(worker)] != Status::kActive) return epoch_;
  return change_locked(worker, Status::kEvicted, fault::ControlAction::kEvict);
}

void MembershipService::quarantine(int worker) {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return;
  fault::record(journal_, fault::ControlAction::kQuarantine, worker);
}

void MembershipService::readmit_contributor(int worker) {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return;
  fault::record(journal_, fault::ControlAction::kReadmitContributor, worker);
}

MembershipEpoch MembershipService::epoch() const {
  std::scoped_lock lock(mutex_);
  return epoch_;
}

int MembershipService::home_shard(int worker) const {
  std::scoped_lock lock(mutex_);
  if (worker < 0 || worker >= capacity_) return 0;
  return home_shard_[static_cast<std::size_t>(worker)];
}

std::vector<int> MembershipService::targets_locked(fault::ControlAction action) const
    SHMCAFFE_REQUIRES(mutex_) {
  SHMCAFFE_ASSERT_HELD(mutex_);
  std::vector<int> out;
  for (const fault::ControlEvent& event : journal_) {
    if (event.action == action) out.push_back(event.target);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MembershipService::report(fault::ControlReport& report,
                               std::vector<fault::ControlEvent>& observed) const {
  std::scoped_lock lock(mutex_);
  report.joined_workers = targets_locked(fault::ControlAction::kWorkerJoin);
  report.drained_workers = targets_locked(fault::ControlAction::kWorkerDrain);
  report.rebalances =
      static_cast<std::int64_t>(targets_locked(fault::ControlAction::kShardRebalance).size());
  report.quarantine_events =
      static_cast<std::int64_t>(targets_locked(fault::ControlAction::kQuarantine).size());
  observed.insert(observed.end(), journal_.begin(), journal_.end());
}

std::int64_t MembershipService::reassignments() const {
  std::scoped_lock lock(mutex_);
  return reassignments_;
}

}  // namespace shmcaffe::elastic
