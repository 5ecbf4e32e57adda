// Straggler detection rule (pure, header-only).
//
// SEASGD tolerates asynchrony only while staleness stays bounded (the
// source paper's core claim; FireCaffe shows that a cohort waiting on
// stragglers loses to one that sets them aside).  The detector judges
// *silence*: the seconds a worker has gone without a report or heartbeat,
// measured in the plan's own units against the same
// MembershipPolicy::quarantine_stall_seconds threshold membership_schedule
// plans from and the simulator applies to every injected stall.  Silence
// is the one signal that survives the trainer's max_iteration_skew pacing:
//
//   * raw iteration staleness never grows — once a worker goes silent,
//     every survivor parks `skew` iterations ahead of it;
//   * a staleness projection (silence x the cohort's iteration rate) or a
//     clock advanced by iteration reports both stop moving at exactly that
//     moment, because parked survivors stop reporting.
//
// Verdicts, per silence of at least the threshold:
//
//   * an alive worker is quarantined (demoted to non-contributing), or
//     evicted on its policy.evict_after_violations-th such silence;
//   * a quarantined worker is readmitted as a contributor once it has
//     reported again.
//
// ProgressBoard::sweep_stragglers applies these over the shared board.
// The rule itself is pure so its arithmetic is unit-testable without one.
#pragma once

#include <cstdint>
#include <vector>

#include "elastic/membership.h"

namespace shmcaffe::elastic {

/// What a straggler sweep decided about one worker.
enum class StragglerVerdict : std::uint8_t {
  kNone,
  kQuarantine,  ///< demote to non-contributing
  kReadmit,     ///< reported again: restore as contributor
  kEvict,       ///< repeated silences: remove from the membership
};

struct StragglerTransition {
  int worker = -1;
  StragglerVerdict verdict = StragglerVerdict::kNone;

  friend bool operator==(const StragglerTransition&, const StragglerTransition&) = default;
};

/// The transitions one sweep applies to a worker, in order.  `quarantined`
/// is its state going in; `ended_silences` counts silences of at least the
/// threshold that a report (or heartbeat) has already ended since the last
/// sweep; `silent` says whether it is in such a silence right now;
/// `prior_violations` counts the silences judged in earlier sweeps.  A
/// quarantined worker with nothing ended is still in the silence that
/// demoted it.  Each further silence is one violation: quarantine — then
/// readmit at once if that silence has already ended — or evict on the
/// policy's Nth.
[[nodiscard]] inline std::vector<StragglerVerdict> judge_silences(
    bool quarantined, std::int64_t ended_silences, bool silent, std::int64_t prior_violations,
    const MembershipPolicy& policy) {
  std::vector<StragglerVerdict> verdicts;
  if (quarantined) {
    if (ended_silences == 0) return verdicts;
    verdicts.push_back(StragglerVerdict::kReadmit);
    --ended_silences;  // the silence it was quarantined for
  }
  std::int64_t violations = prior_violations;
  for (std::int64_t left = ended_silences + (silent ? 1 : 0); left > 0; --left) {
    if (++violations >= policy.evict_after_violations) {
      verdicts.push_back(StragglerVerdict::kEvict);
      break;
    }
    verdicts.push_back(StragglerVerdict::kQuarantine);
    if (left > 1 || !silent) verdicts.push_back(StragglerVerdict::kReadmit);
  }
  return verdicts;
}

}  // namespace shmcaffe::elastic
