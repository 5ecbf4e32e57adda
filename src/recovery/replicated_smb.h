// Replicated Soft Memory Box: a primary/backup ensemble of SmbServers.
//
// The paper's SMB is a single passive memory node (§III-B) — a single point
// of failure it leaves to future work (§V).  ReplicatedSmb closes that gap
// without touching worker code: it implements the same SmbService surface
// over N functional SmbServers, so the Fig. 6 two-thread protocol keeps
// running across a primary fail-stop.
//
//   * Mirrored mutations.  Every float-path mutation (write / accumulate)
//     fans out to all live replicas under one exclusive mirror mutex,
//     stamped with an OpTag (ensemble id + strictly increasing sequence)
//     through SmbServer::write_tagged / accumulate_tagged.
//     The single total order keeps replica contents bit-identical; the tag
//     makes the replay of the last in-flight op after a failover idempotent
//     (a replica that already applied it drops the replay — see
//     SmbServerStats::replays_dropped).
//   * Reads via the active replica.  Reads, version queries and counter
//     loads go to the active (primary) replica only; a fail-stop there
//     promotes the next live replica and retries.
//   * Service-epoch fencing.  Every failover bumps the service epoch
//     (src/recovery/epoch.h).  Logical segments remember the epoch they
//     were last resolved under; a stale segment is re-resolved (probe
//     attach on the survivors, the Fig. 2 slave path) before any further
//     use.  Handles issued to callers are *logical* and survive failovers.
//   * Version waits without the lock.  wait_version_at_least resolves the
//     active physical handle under the mirror mutex but blocks outside it,
//     so a blocked waiter never starves the mirror path; a fail-stop
//     mid-wait triggers failover and the wait resumes on the survivor with
//     the remaining deadline (not a fresh one).
//   * Read-repair.  When a replica's checksum verification throws
//     SmbCorruption (integrity layer, smb/server.h), the ensemble reads
//     every replica's copy, votes by content among the verify-clean ones,
//     rewrites the divergent copies with the winner, and retries.  A repair
//     triggered mid-mutation reuses the in-flight OpTag when the winner had
//     already applied the op, so the retry replays idempotently.  A segment
//     with no clean replica is unrepairable: the SmbCorruption surfaces and
//     the trainer degrades to a checkpoint rollback instead of aborting.
//   * Scrubbing.  scrub() walks every float segment on every live replica
//     during quiesce/checkpoint windows, repairing what it finds before the
//     damage is ever read.
//
// Lock ranking: the mirror mutex is rank 150 (recovery.replica_mirror) —
// above the progress-board sweep (100), below every per-server lock the
// fan-out enters (segment 200, table 210).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/ordered_mutex.h"
#include "recovery/epoch.h"
#include "smb/server.h"

namespace shmcaffe::recovery {

class ReplicatedSmb final : public smb::SmbService {
 public:
  /// The ensemble does not own the replicas; `replicas[0]` starts as the
  /// active primary.  At least one replica is required.  `read_repair`
  /// controls what a checksum mismatch does: vote-and-rewrite (on) or
  /// propagate the SmbCorruption to the caller (off — the
  /// detected-but-unrepaired degraded mode).
  explicit ReplicatedSmb(std::vector<smb::SmbServer*> replicas, bool read_repair = true);
  ReplicatedSmb(const ReplicatedSmb&) = delete;
  ReplicatedSmb& operator=(const ReplicatedSmb&) = delete;

  // --- SmbService surface (logical handles, failover-transparent) --------
  smb::Handle create_floats(smb::ShmKey key, std::size_t count) override;
  smb::Handle attach_floats(smb::ShmKey key, std::size_t count = 0) override;
  smb::Handle create_counters(smb::ShmKey key, std::size_t count) override;
  smb::Handle attach_counters(smb::ShmKey key, std::size_t count = 0) override;
  void release(smb::Handle handle) override;
  [[nodiscard]] std::size_t size(smb::Handle handle) const override;

  void read(smb::Handle handle, std::span<float> dst, std::size_t offset = 0) const override;
  /// Zero-copy read from the *active* replica: pin-time verification plus
  /// the same failover/read-repair loop as read().  The returned view pins
  /// the active replica's storage epoch; it stays valid even across a
  /// later fail-stop of that replica (the epoch is process memory kept
  /// alive by the view, and a fail-stopped server's storage is never
  /// mutated again).
  [[nodiscard]] SHMCAFFE_PIN_ESCAPE smb::PinnedFloats read_pinned(
      smb::Handle handle, std::size_t count, std::size_t offset = 0) const override;
  void write(smb::Handle handle, std::span<const float> src, std::size_t offset = 0) override;
  void accumulate(smb::Handle src, smb::Handle dst) override;

  [[nodiscard]] std::int64_t load(smb::Handle handle, std::size_t index) const override;
  void store(smb::Handle handle, std::size_t index, std::int64_t value) override;
  std::int64_t fetch_add(smb::Handle handle, std::size_t index, std::int64_t delta) override;

  [[nodiscard]] std::uint64_t version(smb::Handle handle) const override;
  SHMCAFFE_BLOCKS std::optional<std::uint64_t> wait_version_at_least(
      smb::Handle handle, std::uint64_t min_version,
      std::chrono::nanoseconds timeout) const override;

  // --- recovery observability --------------------------------------------
  [[nodiscard]] ServiceEpoch service_epoch() const;
  /// Index of the current primary in the constructor's replica list.
  [[nodiscard]] int active_replica() const;
  [[nodiscard]] int live_replica_count() const;
  [[nodiscard]] std::uint64_t failover_count() const;
  /// Replica indices (constructor order) that fail-stopped while active —
  /// one entry per failover, in failover order.  A backup's death never
  /// appears here (no promotion happens).
  [[nodiscard]] std::vector<int> failover_log() const;

  // --- data integrity ------------------------------------------------------

  /// Walks every float logical segment, verifying all live replicas and
  /// vote-repairing what the walk finds (when read-repair is on).  The
  /// background scrubber entry, called from quiesce/checkpoint windows.
  /// Returns the number of segments repaired this pass.  Blocks: the walk
  /// reads and rewrites whole replica segments under the ensemble mutex.
  SHMCAFFE_BLOCKS std::uint64_t scrub();

  /// Injects a silent corruption into replica `replica`'s copy of the float
  /// segment under `key` (the kSegmentCorruption fault hook), under the
  /// mirror mutex: the flip lands between two ensemble operations, never
  /// between a read-repair vote's verification and its rewrite, where the
  /// rewrite would erase it undetected.  Returns the number of chunks
  /// poisoned; throws SmbUnavailable when that replica has fail-stopped.
  std::size_t inject_corruption(std::size_t replica, smb::ShmKey key, std::uint64_t marker,
                                int bit_flips);

  /// Distinct corruption markers detected anywhere in the ensemble.
  [[nodiscard]] std::vector<std::uint64_t> detected_markers() const;
  [[nodiscard]] std::uint64_t corruptions_detected() const;
  /// Markers healed by replica vote, ascending.
  [[nodiscard]] std::vector<std::uint64_t> repaired_markers() const;
  /// Replica copies rewritten by read-repair (a marker repaired on two
  /// replicas counts twice).
  [[nodiscard]] std::uint64_t repairs() const;
  [[nodiscard]] std::uint64_t scrub_passes() const;

 private:
  struct LogicalSegment {
    smb::ShmKey key = 0;
    bool counters = false;
    std::size_t count = 0;
    int refcount = 0;
    /// Epoch the physical handles were last validated under; 0 = never.
    ServiceEpoch resolved_service_epoch = 0;
    /// Per-replica physical handle (meaningful only for live replicas).
    std::vector<smb::Handle> physical;
  };

  /// Applies the mutation to one replica under the given tag.
  using MutationFn = std::function<void(std::size_t replica, smb::OpTag tag)>;

  smb::Handle create_segment(smb::ShmKey key, std::size_t count, bool counters);
  smb::Handle attach_segment(smb::ShmKey key, std::size_t count, bool counters);
  [[nodiscard]] LogicalSegment& segment_locked(smb::Handle handle) const
      SHMCAFFE_REQUIRES(mirror_mutex_);
  /// Throws SmbUnavailable when every replica has fail-stopped.
  void require_live_locked() const SHMCAFFE_REQUIRES(mirror_mutex_);
  /// Marks replica `index` dead; if it was the primary, promotes the next
  /// live replica and bumps the service epoch (a failover).
  void mark_failed_locked(std::size_t index) const SHMCAFFE_REQUIRES(mirror_mutex_);
  void mark_failed_locked(const smb::SmbServer* server) const
      SHMCAFFE_REQUIRES(mirror_mutex_);
  /// Re-resolves a segment whose cached epoch is stale: probes the segment
  /// on every live replica (attach + release) and stamps the new epoch.
  void ensure_resolved_locked(LogicalSegment& segment) const
      SHMCAFFE_REQUIRES(mirror_mutex_);
  /// Stamps a float-path mutation with the next mirror tag and fans it out
  /// to all live replicas.  On a fail-stop mid-fan-out, fails over and
  /// replays the op under the same tag (survivors that already applied it
  /// drop the replay).  A checksum mismatch on one replica triggers a
  /// vote-and-repair of the touched segments, then the same replay.
  void mirror_mutation_locked(std::initializer_list<LogicalSegment*> segments,
                              const MutationFn& op) SHMCAFFE_REQUIRES(mirror_mutex_);
  /// Repairs `segment` by content vote among the verify-clean replicas and
  /// rewrites every divergent copy with the winner.  When called from a
  /// mutation fan-out, `inflight`/`applied` say which replicas already
  /// applied the in-flight op: the vote is then restricted to those (their
  /// content includes the op) and the rewrite reuses the in-flight tag so
  /// the retry replays idempotently; if the op landed only on corrupt
  /// copies the segment is unrepairable.  Returns false when no clean
  /// majority exists (the caller degrades to checkpoint rollback).
  bool vote_and_repair_locked(LogicalSegment& segment, const smb::OpTag* inflight,
                              const std::vector<bool>* applied) const
      SHMCAFFE_REQUIRES(mirror_mutex_);

  /// Tag identity of this ensemble's mirror agent (OpTag::writer).
  static constexpr std::uint64_t kMirrorWriter = 1;

  std::vector<smb::SmbServer*> replicas_ SHMCAFFE_UNGUARDED;  // immutable after ctor
  const bool read_repair_;

  /// Guards everything below; rank 150 (recovery.replica_mirror).  Mutable
  /// because const reads may discover a fail-stop and perform a failover.
  mutable common::OrderedMutex mirror_mutex_{"recovery.replica_mirror",
                                             common::lockrank::kReplicaMirror};
  mutable std::vector<bool> live_ SHMCAFFE_GUARDED_BY(mirror_mutex_);
  mutable std::size_t active_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 0;
  mutable ServiceEpoch service_epoch_ SHMCAFFE_GUARDED_BY(mirror_mutex_) =
      kInitialServiceEpoch;
  mutable std::uint64_t failovers_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 0;
  mutable std::vector<int> failover_log_ SHMCAFFE_GUARDED_BY(mirror_mutex_);
  std::uint64_t mirror_seq_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 0;
  /// Mutable like the failover state: const reads may discover corruption
  /// and repair it.
  mutable std::uint64_t repairs_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 0;
  mutable std::uint64_t scrub_passes_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 0;
  mutable std::vector<std::uint64_t> repaired_markers_ SHMCAFFE_GUARDED_BY(mirror_mutex_);
  std::uint64_t next_logical_key_ SHMCAFFE_GUARDED_BY(mirror_mutex_) = 1;
  mutable std::unordered_map<std::uint64_t, LogicalSegment> segments_
      SHMCAFFE_GUARDED_BY(mirror_mutex_);
  std::unordered_map<smb::ShmKey, std::uint64_t> key_to_logical_
      SHMCAFFE_GUARDED_BY(mirror_mutex_);
};

}  // namespace shmcaffe::recovery
