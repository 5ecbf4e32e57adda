// The integrity policy and its expander: the integrity-domain part of the
// control-event journal (fault/journal.h).  elastic::plan_control_events
// composes this expander with the recovery and membership ones; both
// training stacks then observe which corruptions fired, which checksum
// verification detected, which replica vote repaired, and which armed torn
// writes landed, and keep the planned events they observed.
//
// Every event is keyed by the fault's *marker* (fault/fault_plan.h): the
// plan-drawn nonzero identity a corruption stamps on the chunks it poisons.
// Its target is the physical server the fault hits — torn-write markers
// are drawn per server, so two servers can share one.  No timing enters
// the journal.
#pragma once

#include <vector>

#include "fault/fault_plan.h"
#include "fault/journal.h"

namespace shmcaffe::recovery {

/// What the run does about silent data corruption.  The default keeps the
/// pre-integrity behaviour (no checksums, no verification); read-repair is
/// a no-op until verification is switched on and therefore safe-on.
struct IntegrityPolicy {
  /// The integrity data path: maintain per-chunk FNV-1a checksums on every
  /// SMB float segment (smb::SmbIntegrityOptions' default 4096-float
  /// chunks), verify them before serving reads and accumulating
  /// (detection), and walk and verify every segment during checkpoint
  /// quiesce windows and once at the end of training (scrubbing).
  bool verify_on_read = false;
  /// On detection, read the peer replicas, vote, and rewrite the bad copy
  /// (ReplicatedSmb read-repair).  Without it a detected corruption
  /// surfaces to the trainer, which degrades to a checkpoint rollback.
  bool read_repair = true;
  /// Modelled cost of one replica repair (sim timing only).
  double sim_repair_seconds = 0.002;
};

/// Expands a fault plan into the integrity events `policy` mandates, in plan
/// order: every corruption contributes a kCorruptionInjected, plus a
/// detection if verification is on, plus a repair if read-repair is also
/// on; every torn write contributes a kTornWriteApplied plus the same
/// detection/repair pair, under marker kTornWriteMarkerBit | ordinal.
[[nodiscard]] std::vector<fault::ControlEvent> integrity_schedule(const fault::FaultPlan& plan,
                                                                 const IntegrityPolicy& policy);

}  // namespace shmcaffe::recovery
