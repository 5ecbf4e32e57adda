#include "recovery/integrity.h"

#include "smb/server.h"

namespace shmcaffe::recovery {

std::vector<fault::ControlEvent> integrity_schedule(const fault::FaultPlan& plan,
                                                   const IntegrityPolicy& policy) {
  using fault::ControlAction;
  std::vector<fault::ControlEvent> schedule;
  const auto expand = [&](int target, std::uint64_t marker, ControlAction first) {
    schedule.push_back({first, target, marker});
    if (!policy.verify_on_read) return;
    schedule.push_back({ControlAction::kCorruptionDetected, target, marker});
    if (policy.read_repair) {
      schedule.push_back({ControlAction::kCorruptionRepaired, target, marker});
    }
  };
  for (const fault::FaultEvent& event : plan.events()) {
    switch (event.kind) {
      case fault::FaultKind::kSegmentCorruption:
        expand(event.target, event.sequence, ControlAction::kCorruptionInjected);
        break;
      case fault::FaultKind::kTornWrite:
        expand(event.target, smb::SmbServer::kTornWriteMarkerBit | event.sequence,
               ControlAction::kTornWriteApplied);
        break;
      default:
        break;
    }
  }
  return schedule;
}

}  // namespace shmcaffe::recovery
