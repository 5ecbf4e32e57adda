#include "core/progress_board.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace shmcaffe::core {

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ProgressBoard::ProgressBoard(smb::SmbService& server, smb::ShmKey key, int workers,
                             bool create, int capacity)
    : server_(&server), capacity_(std::max(workers, capacity)) {
  if (create) {
    const std::size_t slots = kHeaderSlots + kColumns * static_cast<std::size_t>(capacity_);
    handle_ = server.create_counters(key, slots);
    for (int w = 0; w < capacity_; ++w) {
      server_->store(handle_, slot(kIncarnations, w), kFirstIncarnation);
      if (w >= workers) set_state(w, WorkerState::kAbsent);
    }
  } else {
    // Attachers cannot know the creator's join capacity up front, so attach
    // size-agnostically and derive it from the segment that exists.
    handle_ = server.attach_counters(key, 0);
    capacity_ = static_cast<int>((server.size(handle_) - kHeaderSlots) / kColumns);
  }
}

void ProgressBoard::stamp(int worker) {
  const std::int64_t now = steady_now_ns();
  const std::int64_t last = server_->load(handle_, slot(kStamps, worker));
  server_->store(handle_, slot(kStamps, worker), now);
  const std::int64_t threshold = server_->load(handle_, kSilenceThreshold);
  if (threshold > 0 && last != 0 && now - last >= threshold) {
    server_->fetch_add(handle_, slot(kEndedSilences, worker), 1);
  }
}

void ProgressBoard::report(int worker, std::int64_t iterations, std::int64_t incarnation) {
  if (!incarnation_is_current(worker, incarnation)) return;  // stale life
  server_->store(handle_, slot(kIterations, worker), iterations);
  stamp(worker);
}

void ProgressBoard::heartbeat(int worker, std::int64_t incarnation) {
  if (!incarnation_is_current(worker, incarnation)) return;  // stale life
  stamp(worker);
}

std::int64_t ProgressBoard::iterations_of(int worker) const {
  return server_->load(handle_, slot(kIterations, worker));
}

std::int64_t ProgressBoard::min_iterations() const {
  std::int64_t result = std::numeric_limits<std::int64_t>::max();
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    result = std::min(result, iterations_of(w));
  }
  return result == std::numeric_limits<std::int64_t>::max() ? 0 : result;
}

std::int64_t ProgressBoard::max_iterations() const {
  std::int64_t result = std::numeric_limits<std::int64_t>::min();
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    result = std::max(result, iterations_of(w));
  }
  return result == std::numeric_limits<std::int64_t>::min() ? 0 : result;
}

double ProgressBoard::mean_iterations() const {
  std::int64_t sum = 0;
  int live = 0;
  for (int w = 0; w < capacity_; ++w) {
    if (!contributing(w)) continue;
    sum += iterations_of(w);
    ++live;
  }
  return live > 0 ? static_cast<double>(sum) / live : 0.0;
}

void ProgressBoard::set_state(int worker, WorkerState state) {
  server_->store(handle_, slot(kStates, worker), static_cast<std::int64_t>(state));
}

void ProgressBoard::mark_finished(int worker) { set_state(worker, WorkerState::kFinished); }

void ProgressBoard::fence(int worker, WorkerState state) {
  set_state(worker, state);
  // A fenced life must not keep contributing a stale iteration count once
  // the slot is re-admitted (kAverageIterations would otherwise average in
  // progress nobody is making).
  server_->store(handle_, slot(kIterations, worker), 0);
  server_->store(handle_, slot(kStamps, worker), 0);
}

void ProgressBoard::mark_dead(int worker) { fence(worker, WorkerState::kDead); }

void ProgressBoard::mark_drained(int worker) { set_state(worker, WorkerState::kDrained); }

void ProgressBoard::mark_evicted(int worker) { fence(worker, WorkerState::kEvicted); }

ProgressBoard::WorkerState ProgressBoard::state_of(int worker) const {
  return static_cast<WorkerState>(server_->load(handle_, slot(kStates, worker)));
}

int ProgressBoard::sweep_dead(double timeout_seconds) {
  // One sweeper at a time; a peer already scanning covers this caller too.
  std::unique_lock sweep(sweep_mutex_, std::try_to_lock);
  if (!sweep.owns_lock()) return 0;
  return sweep_dead_locked(timeout_seconds);
}

int ProgressBoard::sweep_dead_locked(double timeout_seconds)
    SHMCAFFE_REQUIRES(sweep_mutex_) {
  SHMCAFFE_ASSERT_HELD(sweep_mutex_);
  const auto timeout_ns = static_cast<std::int64_t>(timeout_seconds * 1e9);
  const std::int64_t now = steady_now_ns();
  int newly_dead = 0;
  for (int w = 0; w < capacity_; ++w) {
    // Quarantined workers still heartbeat (they keep training toward
    // readmission), so they are swept for death like alive ones.
    const WorkerState state = state_of(w);
    if (state != WorkerState::kAlive && state != WorkerState::kQuarantined) continue;
    const std::int64_t stamp = server_->load(handle_, slot(kStamps, w));
    // stamp == 0 means the worker never reported; give it startup grace.
    if (stamp != 0 && now - stamp > timeout_ns) {
      mark_dead(w);
      ++newly_dead;
    }
  }
  return newly_dead;
}

double ProgressBoard::seconds_to_next_expiry(double heartbeat_timeout_seconds) const {
  const std::int64_t threshold = server_->load(handle_, kSilenceThreshold);
  const std::int64_t now = steady_now_ns();
  std::int64_t next = std::numeric_limits<std::int64_t>::max();
  for (int w = 0; w < capacity_; ++w) {
    const WorkerState state = state_of(w);
    if (state != WorkerState::kAlive && state != WorkerState::kQuarantined) continue;
    const std::int64_t stamp = server_->load(handle_, slot(kStamps, w));
    if (stamp == 0) continue;  // startup grace: not timed yet
    if (heartbeat_timeout_seconds > 0.0) {
      next = std::min(next, stamp + static_cast<std::int64_t>(heartbeat_timeout_seconds * 1e9));
    }
    if (threshold > 0 && state == WorkerState::kAlive) next = std::min(next, stamp + threshold);
  }
  if (next == std::numeric_limits<std::int64_t>::max()) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(next - now) / 1e9;
}

std::int64_t ProgressBoard::incarnation_of(int worker) const {
  return server_->load(handle_, slot(kIncarnations, worker));
}

std::int64_t ProgressBoard::fresh_life(int worker) {
  // Bump the incarnation FIRST: from this moment the previous life's
  // reports and heartbeats are stale and dropped, so the reset below
  // cannot be clobbered by a zombie thread.
  const std::int64_t incarnation =
      server_->fetch_add(handle_, slot(kIncarnations, worker), 1) + 1;
  server_->store(handle_, slot(kIterations, worker), 0);
  server_->store(handle_, slot(kStamps, worker), 0);  // startup grace
  server_->store(handle_, slot(kEndedSilences, worker), 0);
  server_->store(handle_, slot(kViolations, worker), 0);
  set_state(worker, WorkerState::kAlive);
  return incarnation;
}

std::int64_t ProgressBoard::readmit(int worker) { return fresh_life(worker); }

std::int64_t ProgressBoard::admit(int worker) { return fresh_life(worker); }

int ProgressBoard::acting_master() const {
  for (int w = 0; w < capacity_; ++w) {
    if (contributing(w)) return w;
  }
  return 0;
}

void ProgressBoard::watch_stragglers(const elastic::MembershipPolicy& policy) {
  server_->store(handle_, kEvictAfter, policy.evict_after_violations);
  server_->store(handle_, kSilenceThreshold,
                 std::max<std::int64_t>(
                     1, static_cast<std::int64_t>(policy.quarantine_stall_seconds * 1e9)));
}

std::vector<elastic::StragglerTransition> ProgressBoard::sweep_stragglers() {
  std::unique_lock sweep(sweep_mutex_, std::try_to_lock);
  if (!sweep.owns_lock()) return {};
  return sweep_stragglers_locked();
}

std::vector<elastic::StragglerTransition> ProgressBoard::sweep_stragglers_locked()
    SHMCAFFE_REQUIRES(sweep_mutex_) {
  SHMCAFFE_ASSERT_HELD(sweep_mutex_);
  std::vector<elastic::StragglerTransition> transitions;
  const std::int64_t threshold = server_->load(handle_, kSilenceThreshold);
  if (threshold <= 0) return transitions;  // not armed
  elastic::MembershipPolicy policy;
  policy.evict_after_violations = static_cast<int>(server_->load(handle_, kEvictAfter));
  const std::int64_t now = steady_now_ns();
  for (int w = 0; w < capacity_; ++w) {
    const WorkerState state = state_of(w);
    if (state != WorkerState::kAlive && state != WorkerState::kQuarantined) continue;
    // Take the ended silences by subtraction, not by reset: a stamp landing
    // between the load and the update keeps its count for the next sweep.
    const std::int64_t ended = server_->load(handle_, slot(kEndedSilences, w));
    if (ended > 0) server_->fetch_add(handle_, slot(kEndedSilences, w), -ended);
    const std::int64_t stamp = server_->load(handle_, slot(kStamps, w));
    const bool silent = stamp != 0 && now - stamp >= threshold;
    const std::int64_t violations = server_->load(handle_, slot(kViolations, w));
    for (const elastic::StragglerVerdict verdict :
         elastic::judge_silences(state == WorkerState::kQuarantined, ended, silent, violations,
                                 policy)) {
      switch (verdict) {
        case elastic::StragglerVerdict::kQuarantine:
          server_->fetch_add(handle_, slot(kViolations, w), 1);
          set_state(w, WorkerState::kQuarantined);
          break;
        case elastic::StragglerVerdict::kReadmit:
          set_state(w, WorkerState::kAlive);
          break;
        case elastic::StragglerVerdict::kEvict:
          server_->fetch_add(handle_, slot(kViolations, w), 1);
          mark_evicted(w);
          break;
        case elastic::StragglerVerdict::kNone:
          break;
      }
      transitions.push_back({w, verdict});
    }
  }
  return transitions;
}

void ProgressBoard::raise_stop() { server_->store(handle_, kStopFlag, 1); }

bool ProgressBoard::stop_raised() const { return server_->load(handle_, kStopFlag) != 0; }

void ProgressBoard::hold_stop(bool held) { server_->store(handle_, kStopHold, held ? 1 : 0); }

bool ProgressBoard::stop_held() const { return server_->load(handle_, kStopHold) != 0; }

bool ProgressBoard::criterion_met(TerminationCriterion criterion, int worker,
                                  std::int64_t my_iterations,
                                  std::int64_t target_iterations) const {
  switch (criterion) {
    case TerminationCriterion::kMasterFinishes:
      // Degradation: if the master died, the lowest-indexed survivor
      // inherits the role, so the criterion still fires.
      return worker == acting_master() && my_iterations >= target_iterations;
    case TerminationCriterion::kFirstFinisher:
      return my_iterations >= target_iterations;
    case TerminationCriterion::kAverageIterations:
      // Dead workers are excluded from the mean: the run converges on the
      // survivors' progress instead of chasing a frozen numerator.
      return mean_iterations() >= static_cast<double>(target_iterations);
  }
  return false;
}

ProgressBoard::Vote ProgressBoard::vote(TerminationCriterion criterion, int worker,
                                        std::int64_t my_iterations,
                                        std::int64_t target_iterations,
                                        std::int64_t incarnation) {
  // A stale incarnation is fenced outright: the slot now belongs to a
  // re-admitted successor, so this life must exit without contributing.
  if (!incarnation_is_current(worker, incarnation)) return Vote::kStop;
  report(worker, my_iterations, incarnation);
  if (stop_raised()) return Vote::kStop;
  // Fenced: a worker declared dead or evicted must not keep contributing
  // (its exchanges would re-include a peer everyone else already excluded).
  const WorkerState state = state_of(worker);
  if (state == WorkerState::kDead || state == WorkerState::kEvicted) return Vote::kStop;
  if (state == WorkerState::kQuarantined) return Vote::kContinue;
  if (!criterion_met(criterion, worker, my_iterations, target_iterations)) {
    return Vote::kContinue;
  }
  if (stop_held()) return Vote::kHold;
  raise_stop();
  return Vote::kStop;
}

bool ProgressBoard::should_stop(TerminationCriterion criterion, int worker,
                                std::int64_t my_iterations,
                                std::int64_t target_iterations,
                                double heartbeat_timeout_seconds,
                                std::int64_t incarnation) {
  if (heartbeat_timeout_seconds > 0.0) {
    heartbeat(worker, incarnation);  // stamp first: the sweep never fences its caller
    sweep_dead(heartbeat_timeout_seconds);
  }
  return vote(criterion, worker, my_iterations, target_iterations, incarnation) == Vote::kStop;
}

void ProgressBoard::release() {
  if (server_ != nullptr && handle_.valid()) {
    server_->release(handle_);
    handle_ = smb::Handle{};
  }
}

}  // namespace shmcaffe::core
