// The control-event journal: one record of the control actions a training
// run takes about its faults and its membership — SMB failovers and worker
// re-admissions (recovery), corruption injection, detection and repair
// (integrity), and joins, drains, straggler transitions and shard rebalances
// (membership).
//
// Both training stacks — the functional thread trainer and the discrete-
// event simulator — derive the same planned journal from one run plan
// (core::RunPlan::planned_journal), append every control event they observe
// to a plain list, and keep the planned events they observed (executed())
// in one ControlReport.  Equal executed journals mean the two stacks took
// the same control actions; a mismatch prints the events themselves.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/ordered_mutex.h"

namespace shmcaffe::fault {

/// The twelve control actions, declared grouped by domain (domain_of relies
/// on it) and, within membership, in same-iteration tie-break order (a
/// quarantine precedes its readmit).
enum class ControlAction : std::uint8_t {
  // recovery
  kSmbFailover,    ///< a backup replica took over from fail-stopped server `target`
  kWorkerReadmit,  ///< crashed worker `target` was re-admitted
  // integrity: `target` is the physical SMB server, `key` the fault marker
  kCorruptionInjected,  ///< a kSegmentCorruption poisoned server `target`
  kCorruptionDetected,  ///< checksum verification caught the marker
  kCorruptionRepaired,  ///< replica vote rewrote the poisoned copy
  kTornWriteApplied,    ///< an armed kTornWrite reached its ordinal and fired
  // membership
  kWorkerJoin,          ///< slot `target` cold-joined the run
  kWorkerDrain,         ///< worker `target` drained voluntarily
  kQuarantine,          ///< worker `target` demoted to non-contributing
  kReadmitContributor,  ///< quarantined worker `target` caught up and was readmitted
  kEvict,               ///< worker `target` evicted after repeated violations
  kShardRebalance,      ///< home-shard map recomputed after `target`'s join/drain/evict
};

enum class ControlDomain : std::uint8_t { kRecovery, kIntegrity, kMembership };

[[nodiscard]] ControlDomain domain_of(ControlAction action);
[[nodiscard]] const char* to_string(ControlAction action);

/// One planned or observed control action.  Integrity events are keyed by
/// their fault marker; every other event by the 1-based ordinal of its
/// (action, target) pair in its journal — a worker's second quarantine has
/// key 2.
struct ControlEvent {
  ControlAction action = ControlAction::kSmbFailover;
  int target = -1;
  std::uint64_t key = 0;

  friend bool operator==(const ControlEvent&, const ControlEvent&) = default;
};

/// What a run did about its faults and its membership, as both training
/// stacks report it: core::TrainResult and cluster::PlatformTiming derive
/// from it, so the functional and simulated counters compare field for
/// field.
struct ControlReport {
  /// Worker slots re-admitted mid-run by the recovery layer, ascending (a
  /// worker can be both crashed and recovered: its first life died, the
  /// slot finished under a replacement).
  std::vector<int> recovered_workers;
  /// SMB primary failovers executed across all shard ensembles.
  std::int64_t smb_failovers = 0;
  /// Elastic membership: workers that cold-joined / voluntarily drained
  /// mid-run, ascending; shard-map rebalances executed; straggler
  /// quarantine demotions.
  std::vector<int> joined_workers;
  std::vector<int> drained_workers;
  std::int64_t rebalances = 0;
  std::int64_t quarantine_events = 0;
  /// Data integrity: distinct corruption markers caught by checksum
  /// verification, replica copies rewritten by read-repair, and scrub
  /// passes completed.
  std::int64_t corruptions_detected = 0;
  std::int64_t integrity_repairs = 0;
  std::int64_t scrub_passes = 0;
  /// The planned control events the run executed, in planned order
  /// (executed() over the run plan's planned journal).
  std::vector<ControlEvent> journal;
};

/// Appends (action, target), keyed by its ordinal among the journal's
/// events with the same action and target.
void record(std::vector<ControlEvent>& journal, ControlAction action, int target);

/// The planned events that were observed, in planned order.  A multiset
/// match: each observed event vouches for at most one equal planned event,
/// unplanned observations drop out, and so do planned events nobody
/// observed.
[[nodiscard]] std::vector<ControlEvent> executed(std::span<const ControlEvent> planned,
                                                 std::span<const ControlEvent> observed);

/// Order-sensitive FNV-1a digest over (action, target, key).
[[nodiscard]] SHMCAFFE_DETERMINISTIC SHMCAFFE_NONBLOCKING std::uint64_t journal_fingerprint(
    std::span<const ControlEvent> events);

/// One event per line, as operator<< prints it.
[[nodiscard]] std::string describe(std::span<const ControlEvent> events);

/// "quarantine target=2 #1", "corruption_detected target=0 marker=0x5eed".
std::ostream& operator<<(std::ostream& out, const ControlEvent& event);

}  // namespace shmcaffe::fault
