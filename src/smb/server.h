// Functional Soft Memory Box (SMB) server.
//
// The SMB is the paper's replacement for a parameter server: a passive
// remote shared-memory service.  It provides (§III-B):
//   * creation of named remote shared memory (RSM) segments under an SHM key
//   * allocation (attach) of an existing segment by other workers
//   * read / write of segment contents
//   * server-side accumulation between segments (the only "compute" the SMB
//     offers; the paper uses it for the global-weight update, eq. (7))
//   * update notification (version counters workers can wait on)
//
// This variant holds real memory and is safe for concurrent use from many OS
// threads — it is what the functional distributed-training experiments talk
// to.  A timing twin over the simulated RDMA stack lives in sim_smb.h.
// SmbServer implements the abstract SmbService surface (service.h), so
// everything above it (the trainer, the sharded buffer, the progress board)
// works identically against a replicated ensemble.  On top of that surface
// it offers what the ensemble (src/recovery/replicated_smb.h) needs for
// idempotent replay and read-repair — OpTag-guarded mutations, raw reads,
// whole-segment verification — and the fault-injection hooks below.
//
// Two segment kinds exist:
//   * float segments    — DNN parameter buffers (read/write/accumulate)
//   * counter segments  — int64 slots with atomic ops, used for the shared
//                         training-progress board (§III-E)
//
// Fault injection hooks: freeze_for() stalls the float data path for a
// window (transient); fail_stop() kills the server permanently — every
// subsequent operation (and every wait already blocked on it) throws
// SmbUnavailable, modelling a crashed memory node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/ordered_mutex.h"
#include "smb/service.h"

namespace shmcaffe::smb {

/// Identity of one mirrored mutation, used for idempotent replay.  A
/// mirroring agent stamps each float-path mutation with its own id and a
/// strictly increasing sequence number; a server that already applied the
/// tag drops the replay instead of double-applying it (the "last in-flight
/// op" replayed after a failover must be exactly-once per replica).
struct OpTag {
  std::uint64_t writer = 0;  ///< mirroring-agent id (0 = untagged)
  std::uint64_t sequence = 0;  ///< strictly increasing per writer; 0 = untagged
  [[nodiscard]] bool tagged() const { return writer != 0 && sequence != 0; }
};

/// Data-integrity policy for float segments.  Off by default: checksum
/// maintenance taxes every write/accumulate, so the fault-free hot path
/// stays byte-for-byte what it was before the integrity layer existed.
struct SmbIntegrityOptions {
  /// Maintain per-chunk FNV-1a checksums, updated incrementally by every
  /// write / accumulate to a float segment, and verify the checksums of the
  /// touched range before serving a read and before accumulating into (or
  /// from) a segment, throwing SmbCorruption on mismatch.
  /// Verifying *before* the accumulate matters: an unverified accumulate
  /// would recompute the checksum over corrupted data and launder the
  /// corruption.
  bool verify_on_read = false;
  /// Checksum granularity in floats (16 KiB chunks by default).
  std::size_t chunk_floats = 4096;
};

struct SmbServerOptions {
  /// Total granted memory of the memory node (the paper's memory server has
  /// 256 GB; tests use small values to exercise exhaustion).
  std::int64_t capacity_bytes = 8LL << 30;
  SmbIntegrityOptions integrity;
};

/// Cumulative operation statistics (for reports and tests).
struct SmbServerStats {
  std::uint64_t creates = 0;
  std::uint64_t attaches = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t accumulates = 0;
  /// Tagged mutations dropped because their OpTag was already applied
  /// (idempotent replay after a failover).
  std::uint64_t replays_dropped = 0;
  /// Per-chunk checksum verifications performed (verify_on_read + scrubs).
  std::uint64_t chunks_verified = 0;
  /// Chunk verifications that failed (checksum mismatch).
  std::uint64_t corruptions_detected = 0;
  /// Armed torn writes that actually fired.
  std::uint64_t torn_writes_applied = 0;
  /// Zero-copy pinned reads served (read_pinned).  Accumulate's internal
  /// pin of its source is not a read and is not counted.
  std::uint64_t pinned_reads = 0;
  /// Storage epochs cloned because a writer hit an outstanding pin.
  std::uint64_t cow_clones = 0;
  /// Bytes served by copy reads only.  Pinned reads move no bytes, so they
  /// are accounted under bytes_pinned instead of inflating this.
  std::int64_t bytes_read = 0;
  /// Bytes made visible through pinned zero-copy views.
  std::int64_t bytes_pinned = 0;
  std::int64_t bytes_written = 0;
  std::int64_t bytes_in_use = 0;
};

class SmbServer final : public SmbService {
 public:
  explicit SmbServer(SmbServerOptions options = {});
  SmbServer(const SmbServer&) = delete;
  SmbServer& operator=(const SmbServer&) = delete;

  // --- segment lifecycle -------------------------------------------------

  /// Creates a float segment of `count` elements under `key`.
  /// Fails if the key exists or capacity would be exceeded.
  Handle create_floats(ShmKey key, std::size_t count) override;

  /// Attaches to an existing float segment; `count` (if nonzero) must match.
  Handle attach_floats(ShmKey key, std::size_t count = 0) override;

  /// Creates a counter segment of `count` int64 slots (zero-initialised).
  Handle create_counters(ShmKey key, std::size_t count) override;

  Handle attach_counters(ShmKey key, std::size_t count = 0) override;

  /// Drops one reference; the segment is freed when the creator and all
  /// attachments released it.
  void release(Handle handle) override;

  /// Elements in the segment.
  [[nodiscard]] std::size_t size(Handle handle) const override;

  // --- float segment data path -------------------------------------------

  void read(Handle handle, std::span<float> dst, std::size_t offset = 0) const override;

  /// Zero-copy read: pins the segment's current storage epoch and returns a
  /// span directly into it (no bytes move; counted under bytes_pinned, not
  /// bytes_read).  Checksums of the range are verified once, at pin time.
  /// While the view is live, a writer clones the storage (copy-on-write)
  /// and never waits for the unpin, matching the paper's asynchronous
  /// exchange.  The corruption fault hooks deliberately skip the clone:
  /// silent corruption does not announce itself to readers, so a reader
  /// that must not consume a flip landing inside its window re-pins after
  /// use — a clean re-pin of the same epoch proves the bytes it read.
  [[nodiscard]] SHMCAFFE_PIN_ESCAPE PinnedFloats read_pinned(
      Handle handle, std::size_t count, std::size_t offset = 0) const override;

  void write(Handle handle, std::span<const float> src, std::size_t offset = 0) override;

  /// Server-side accumulate: dst[i] += src[i] for the full (equal) lengths.
  /// Requests against the same destination are processed exclusively
  /// (paper §III-G, step T.A3).  The source's live epoch is pinned under
  /// its own lock (an internal pin: counted in the segment's pin balance,
  /// not as a pinned read), then the add reads it in place, in parallel
  /// chunks on the shared work pool, while only the destination lock is
  /// held — bitwise identical for any pool width (see common/parallel.h).
  void accumulate(Handle src, Handle dst) override;

  // --- tagged (idempotent) mutations -------------------------------------
  // Mirrored variants used by the recovery layer: the mutation is applied at
  // most once per OpTag — a replay of the last in-flight op after a failover
  // or a repair is dropped (and counted in stats().replays_dropped) instead
  // of applied twice.  An untagged OpTag degenerates to the plain op.

  SHMCAFFE_HOT_KERNEL void write_tagged(Handle handle, std::span<const float> src,
                                        std::size_t offset, OpTag tag);
  SHMCAFFE_HOT_KERNEL void accumulate_tagged(Handle src, Handle dst, OpTag tag);

  // --- data integrity ------------------------------------------------------
  // Per-chunk FNV-1a checksums over float segments (enabled by
  // SmbIntegrityOptions).  A chunk whose contents stopped matching its
  // checksum carries a nonzero *marker* — the fault event's identity — so
  // detections and repairs can be attributed to the event that caused them.

  /// One chunk whose stored checksum no longer matches its contents.
  struct CorruptChunk {
    std::size_t chunk = 0;       ///< chunk index within the segment
    std::uint64_t marker = 0;    ///< poisoning event's marker; 0 = unattributed
  };

  /// Verifies every chunk of a float segment (no throw); records detections
  /// and returns the mismatching chunks.  The scrubber / read-repair entry.
  std::vector<CorruptChunk> verify_segment(Handle handle);

  /// Reads without verification — the repair/vote path must be able to look
  /// at a corrupt copy.
  void read_raw(Handle handle, std::span<float> dst, std::size_t offset = 0) const;

  /// Markers of every corruption this server has detected, ascending.
  [[nodiscard]] std::vector<std::uint64_t> detected_markers() const;

  /// Markers (kTornWriteMarkerBit | ordinal) of armed torn writes that
  /// fired, ascending.
  [[nodiscard]] std::vector<std::uint64_t> torn_applied_markers() const;

  // --- integrity fault injection -------------------------------------------

  /// Torn-write markers live in the upper half of the marker space so they
  /// can never collide with the plan-drawn corruption markers (high bit
  /// clear by construction, see fault/fault_plan.h).
  static constexpr std::uint64_t kTornWriteMarkerBit = 1ULL << 63;

  /// Flips `bit_flips` marker-seeded mantissa bits in the float segment
  /// under `key` and poisons the touched chunks with `marker`.  Checksums
  /// are deliberately left stale — that is the fault.  An epoch that
  /// readers hold pinned is cloned first, as a writer would, so their views
  /// keep the old bits.  Returns the number of chunks poisoned (0 if the
  /// key does not name a float segment).
  std::size_t corrupt_floats(ShmKey key, std::uint64_t marker, int bit_flips);

  /// Arms a torn write: the `ordinal`-th float write accepted by this server
  /// (1-based, arrival order) applies only the leading `fraction` of its
  /// payload while the checksums record the full intended write — modelling
  /// a writer-side checksum with a partially-landed DMA.  The tail chunks
  /// are poisoned with marker kTornWriteMarkerBit | ordinal.
  void arm_torn_write(std::uint64_t ordinal, double fraction);

  /// Arms a flip inside a reader's window: the `ordinal`-th pinned read
  /// served by this server (1-based, arrival order) pins, verifies, and
  /// then has corrupt_floats' flips land in the epoch it just pinned.
  void arm_pinned_corruption(std::uint64_t ordinal, std::uint64_t marker, int bit_flips);

  /// Markers of armed pinned-read corruptions that fired, ascending.
  [[nodiscard]] std::vector<std::uint64_t> pinned_corruption_markers() const;

  // --- counter segment ops -----------------------------------------------

  // Lock-free atomics end to end: the progress board must never stall a
  // worker, so the whole counter plane is contractually non-blocking.
  [[nodiscard]] SHMCAFFE_NONBLOCKING std::int64_t load(Handle handle,
                                                       std::size_t index) const override;
  SHMCAFFE_NONBLOCKING void store(Handle handle, std::size_t index, std::int64_t value) override;
  SHMCAFFE_NONBLOCKING std::int64_t fetch_add(Handle handle, std::size_t index,
                                              std::int64_t delta) override;

  // --- update notification -------------------------------------------------

  /// Monotone version, bumped by every write/accumulate to the segment.
  /// Non-blocking by contract: pollers may call it at any rate, under any
  /// caller-side lock.
  [[nodiscard]] SHMCAFFE_NONBLOCKING std::uint64_t version(Handle handle) const override;

  /// Blocks until version(handle) >= min_version or `timeout` elapses.
  /// Returns the version seen, or nullopt on timeout.  Throws SmbUnavailable
  /// (instead of burning the deadline) if the server fail-stops mid-wait.
  SHMCAFFE_BLOCKS std::optional<std::uint64_t> wait_version_at_least(
      Handle handle, std::uint64_t min_version,
      std::chrono::nanoseconds timeout) const override;

  // --- fault injection -----------------------------------------------------

  /// Simulates a server freeze (GC pause, kernel-module hiccup, overloaded
  /// memory node): every float data-path operation entering during the next
  /// `duration` blocks until the freeze lifts.  Counter segments — the
  /// progress board — stay live, matching a stalled data plane with a
  /// responsive control plane.  Repeated calls extend the window.
  void freeze_for(std::chrono::nanoseconds duration);
  [[nodiscard]] bool frozen() const;

  /// Permanent fail-stop: the memory node is gone.  Every subsequent
  /// operation throws SmbUnavailable, and threads blocked in
  /// wait_version_at_least (or in a freeze window) are woken to throw it
  /// too, so nobody waits out a deadline on a dead server.
  void fail_stop();
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] SHMCAFFE_NONBLOCKING SmbServerStats stats() const;
  [[nodiscard]] std::int64_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  enum class Kind { kFloats, kCounters };

  /// One storage *epoch* of a float segment: the arena slab pinned reads
  /// alias.  The live epoch hangs off Segment::storage; a copy-on-write
  /// retires the old epoch, which stays alive (and immutable) through the
  /// shared_ptr each outstanding PinnedFloats holds.
  struct SegmentStorage {
    /// The owning backing slab of the epoch itself — not a view of someone
    /// else's storage.  Its lifetime (shared_ptr from Segment::storage and
    /// from every outstanding pin) IS the pin protocol.
    common::arena::Buffer data SHMCAFFE_PIN_ESCAPE{"smb.segment"};
    /// Outstanding pinned views of this epoch.  Always modified under the
    /// owning segment's data_mutex, so an unpin happens-before the next
    /// writer that finds the count at zero and mutates in place; atomic
    /// because that mutex belongs to the enclosing Segment, not to the
    /// epoch.
    std::atomic<int> pins{0};
  };

  struct Segment {
    ShmKey key SHMCAFFE_UNGUARDED = 0;             // immutable after create
    Kind kind SHMCAFFE_UNGUARDED = Kind::kFloats;  // immutable after create
    /// Live storage epoch (never null for float segments).
    std::shared_ptr<SegmentStorage> storage SHMCAFFE_GUARDED_BY(data_mutex) =
        std::make_shared<SegmentStorage>();
    /// Lifetime pin/unpin totals (balance asserted at final release);
    /// atomic for the same table-lock-rank reason as SegmentStorage::pins.
    std::atomic<std::uint64_t> pins_issued{0};
    std::atomic<std::uint64_t> pins_released{0};
    /// Sized once at create; the slots themselves are atomics.
    std::vector<std::atomic<std::int64_t>> counters SHMCAFFE_UNGUARDED;
    /// Reference count lives with the segment table, not the data path.
    int refcount SHMCAFFE_GUARDED_BY(table_mutex_) = 0;
    std::uint64_t version SHMCAFFE_GUARDED_BY(data_mutex) = 0;
    /// Per-chunk FNV-1a checksums (empty unless integrity is on).
    std::vector<std::uint64_t> chunk_sums SHMCAFFE_GUARDED_BY(data_mutex);
    /// Per-chunk poisoning markers (0 = clean); parallel to chunk_sums.
    std::vector<std::uint64_t> chunk_markers SHMCAFFE_GUARDED_BY(data_mutex);
    /// Highest applied OpTag sequence per mirroring agent (idempotent
    /// replay detection); guarded by data_mutex like floats + version.
    std::unordered_map<std::uint64_t, std::uint64_t> applied_tags
        SHMCAFFE_GUARDED_BY(data_mutex);
    /// Guards floats + version.  All segments share one lock rank, and the
    /// server never holds two at once (accumulate pins the source under its
    /// lock, then adds under the destination's).
    mutable common::OrderedMutex data_mutex{"smb.server.segment",
                                            common::lockrank::kSmbSegment};
    mutable std::condition_variable_any version_cv;
  };

  Handle create_segment(ShmKey key, std::size_t count, Kind kind);
  Handle attach_segment(ShmKey key, std::size_t count, Kind kind);
  [[nodiscard]] std::shared_ptr<Segment> find(Handle handle) const;
  [[nodiscard]] std::shared_ptr<Segment> find(Handle handle, Kind kind) const;
  static std::int64_t footprint(const Segment& segment);
  static const char* kind_name(Kind kind);
  /// Blocks the calling thread while a freeze window is active; throws
  /// SmbUnavailable if the server fail-stops during the wait.
  SHMCAFFE_BLOCKS void block_while_frozen() const;
  void throw_if_failed() const;
  /// True (under the segment's data_mutex) if `tag` was already applied to
  /// `segment`; records it otherwise.
  bool replayed_locked(Segment& segment, OpTag tag)
      SHMCAFFE_REQUIRES(segment.data_mutex);
  /// Pins `segment`'s live epoch and returns it; unpin() drops the pin.
  static std::shared_ptr<SegmentStorage> pin_live_locked(Segment& segment)
      SHMCAFFE_REQUIRES(segment.data_mutex);
  /// Drops one pin of `epoch`, a pinned epoch of `segment`, under the
  /// segment's data_mutex.
  static void unpin(Segment& segment, SegmentStorage& epoch);
  /// Copy-on-write before a mutation of `segment`'s floats: with pins
  /// outstanding, swaps in a fresh storage epoch (the retired one stays
  /// alive and immutable via the pinned views' refs).
  void prepare_write_locked(Segment& segment) SHMCAFFE_REQUIRES(segment.data_mutex);

  /// FNV-1a over the chunk's float bytes.
  static std::uint64_t chunk_checksum(const float* data, std::size_t count);
  /// Recomputes the checksums of every chunk overlapping [first, first+count)
  /// from the segment's current contents and clears their markers (the range
  /// was just legitimately rewritten).
  void refresh_chunks_locked(Segment& segment, std::size_t first, std::size_t count)
      SHMCAFFE_REQUIRES(segment.data_mutex);
  /// Verifies every chunk overlapping [first, first+count); on mismatch
  /// records the detection (stats + markers) and throws SmbCorruption.
  /// Const because reads are logically const — detection only touches the
  /// mutable stats/marker log.
  void verify_chunks_locked(Segment& segment, std::size_t first, std::size_t count) const
      SHMCAFFE_REQUIRES(segment.data_mutex);
  /// Non-throwing verify of the same range; appends mismatches to `bad` and
  /// returns the number of chunks checked.
  std::size_t collect_corrupt_chunks_locked(Segment& segment, std::size_t first,
                                            std::size_t count,
                                            std::vector<CorruptChunk>& bad) const
      SHMCAFFE_REQUIRES(segment.data_mutex);
  /// Records a verification outcome under the table lock (stats + markers).
  void record_verification(std::size_t checked, const std::vector<CorruptChunk>& bad) const;
  /// Flips bits of the live epoch in place (corrupt_floats after its
  /// copy-on-write, or an armed pinned corruption); returns the chunks
  /// poisoned.
  std::size_t flip_bits_locked(Segment& segment, std::uint64_t marker, int bit_flips) const
      SHMCAFFE_REQUIRES(segment.data_mutex);

  SmbServerOptions options_ SHMCAFFE_UNGUARDED;  // immutable after ctor
  /// steady_clock time (ns since epoch) until which the data path is frozen.
  std::atomic<std::int64_t> frozen_until_ns_{0};
  std::atomic<bool> failed_{false};
  /// Guards the maps + stats + ids.  Ranked above the segment locks:
  /// read() updates stats under the table lock while holding a segment.
  mutable common::OrderedSharedMutex table_mutex_{"smb.server.table",
                                                  common::lockrank::kSmbTable};
  std::unordered_map<std::uint64_t, std::shared_ptr<Segment>> by_access_key_
      SHMCAFFE_GUARDED_BY(table_mutex_);
  std::unordered_map<ShmKey, std::uint64_t> key_to_access_
      SHMCAFFE_GUARDED_BY(table_mutex_);  // canonical access key
  std::uint64_t next_access_key_ SHMCAFFE_GUARDED_BY(table_mutex_) = 1;
  mutable SmbServerStats stats_ SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Markers of detected corruptions, in detection order (deduplicated).
  /// Mutable for the same reason as stats_: const reads detect corruption.
  mutable std::vector<std::uint64_t> detected_markers_ SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Markers of armed torn writes that fired.
  std::vector<std::uint64_t> torn_applied_ SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Armed torn writes: write ordinal -> applied fraction.
  std::unordered_map<std::uint64_t, double> armed_torn_ SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Arrival-order float-write counter (torn-write ordinals).
  std::atomic<std::uint64_t> write_ordinal_{0};
  /// Fast-path gate: nonzero only while torn writes are armed.
  std::atomic<int> torn_armed_count_{0};
  /// An armed pinned-read corruption: corrupt_floats' marker and flips.
  struct PinnedFlip {
    std::uint64_t marker = 0;
    int bit_flips = 1;
  };
  /// Armed pinned-read corruptions: pinned-read ordinal -> flip.  Mutable
  /// for the same reason as stats_: the const read_pinned fires them.
  mutable std::unordered_map<std::uint64_t, PinnedFlip> armed_pinned_
      SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Markers of armed pinned-read corruptions that fired.
  mutable std::vector<std::uint64_t> pinned_flipped_ SHMCAFFE_GUARDED_BY(table_mutex_);
  /// Arrival-order pinned-read counter (pinned-corruption ordinals).
  mutable std::atomic<std::uint64_t> pin_ordinal_{0};
  /// Fast-path gate: nonzero only while pinned-read corruptions are armed.
  mutable std::atomic<int> pinned_armed_count_{0};
};

}  // namespace shmcaffe::smb
