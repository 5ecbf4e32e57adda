#include "fault/journal.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace shmcaffe::fault {

ControlDomain domain_of(ControlAction action) {
  if (action <= ControlAction::kWorkerReadmit) return ControlDomain::kRecovery;
  if (action <= ControlAction::kTornWriteApplied) return ControlDomain::kIntegrity;
  return ControlDomain::kMembership;
}

const char* to_string(ControlAction action) {
  switch (action) {
    case ControlAction::kSmbFailover: return "smb_failover";
    case ControlAction::kWorkerReadmit: return "worker_readmit";
    case ControlAction::kCorruptionInjected: return "corruption_injected";
    case ControlAction::kCorruptionDetected: return "corruption_detected";
    case ControlAction::kCorruptionRepaired: return "corruption_repaired";
    case ControlAction::kTornWriteApplied: return "torn_write_applied";
    case ControlAction::kWorkerJoin: return "worker_join";
    case ControlAction::kWorkerDrain: return "worker_drain";
    case ControlAction::kQuarantine: return "quarantine";
    case ControlAction::kReadmitContributor: return "readmit_contributor";
    case ControlAction::kEvict: return "evict";
    case ControlAction::kShardRebalance: return "shard_rebalance";
  }
  __builtin_unreachable();
}

void record(std::vector<ControlEvent>& journal, ControlAction action, int target) {
  const auto ordinal = std::count_if(journal.begin(), journal.end(), [&](const ControlEvent& e) {
    return e.action == action && e.target == target;
  });
  journal.push_back({action, target, static_cast<std::uint64_t>(ordinal) + 1});
}

std::vector<ControlEvent> executed(std::span<const ControlEvent> planned,
                                   std::span<const ControlEvent> observed) {
  std::vector<ControlEvent> unmatched(observed.begin(), observed.end());
  std::vector<ControlEvent> kept;
  for (const ControlEvent& event : planned) {
    const auto it = std::find(unmatched.begin(), unmatched.end(), event);
    if (it == unmatched.end()) continue;
    unmatched.erase(it);
    kept.push_back(event);
  }
  return kept;
}

std::uint64_t journal_fingerprint(std::span<const ControlEvent> events) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    hash ^= word;
    hash *= 0x100000001b3ULL;
  };
  for (const ControlEvent& event : events) {
    mix(static_cast<std::uint64_t>(event.action));
    mix(static_cast<std::uint64_t>(event.target));
    mix(event.key);
  }
  return hash;
}

std::string describe(std::span<const ControlEvent> events) {
  std::ostringstream out;
  for (const ControlEvent& event : events) out << event << '\n';
  return out.str();
}

std::ostream& operator<<(std::ostream& out, const ControlEvent& event) {
  out << to_string(event.action) << " target=" << event.target;
  if (domain_of(event.action) == ControlDomain::kIntegrity) {
    return out << " marker=0x" << std::hex << event.key << std::dec;
  }
  return out << " #" << event.key;
}

}  // namespace shmcaffe::fault
