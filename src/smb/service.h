// Abstract Soft Memory Box service surface.
//
// The paper's workers talk to "the SMB" without caring whether it is one
// passive memory node or something more available.  SmbService captures that
// contract: segment lifecycle (Fig. 2 create/attach by SHM key), the float
// data path (read / write / server-side accumulate, §III-B), the counter
// segment ops backing the shared progress board (§III-E), and update
// notification (version counters, Fig. 6 T.A5).  Nothing else: the trainer,
// the progress board and the sharded buffer call all but the update
// notification, which examples/smb_progress_board drives, and the segment
// and float ops are the ones the simulated twin SimSmbClient models
// (sim_smb.h).  The OpTag-guarded mutations a mirror replays after a
// failover are not part of it; they live on SmbServer, the one class the
// mirror drives.  Implementations:
//
//   * SmbServer        — one functional in-memory server (server.h);
//   * ReplicatedSmb    — a primary/backup ensemble of SmbServers with
//                        transparent failover (src/recovery/replicated_smb.h).
//
// Error model: SmbError for misuse (kind/size mismatch, bad handle),
// SmbNotFound for attach-before-create races (retryable), SmbUnavailable for
// a fail-stopped service — the one error a recovery layer may translate into
// a failover instead of propagating.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/ordered_mutex.h"

namespace shmcaffe::smb {

/// Application-chosen name of a segment (the "SHM key" the master worker
/// broadcasts to slaves in Fig. 2).
using ShmKey = std::uint64_t;

/// Service-issued access key for an attached segment (stands in for the
/// InfiniBand remote key of the real system).
struct Handle {
  std::uint64_t access_key = 0;
  [[nodiscard]] bool valid() const { return access_key != 0; }
  friend bool operator==(const Handle&, const Handle&) = default;
};

class SmbError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Attach target does not exist (yet) — the one SmbError worth retrying:
/// a slave may race the master's segment creation (Fig. 2 steps 1-3).
class SmbNotFound : public SmbError {
 public:
  using SmbError::SmbError;
};

/// The service has fail-stopped (crash fault injection): every operation on
/// it is gone for good.  A replicated ensemble catches this and fails over
/// to a surviving replica; without a replica it surfaces to the worker.
class SmbUnavailable : public SmbError {
 public:
  using SmbError::SmbError;
};

/// A per-chunk checksum mismatch was detected on the touched range (silent
/// data corruption, e.g. a bit flip or a torn write).  A replicated ensemble
/// catches this and read-repairs the bad copy from its peers; without a
/// clean peer it surfaces to the worker, whose recovery layer degrades to a
/// checkpoint rollback instead of consuming poisoned weights.
class SmbCorruption : public SmbError {
 public:
  using SmbError::SmbError;
};

/// Epoch-pinned zero-copy read view over a float segment (move-only RAII).
///
/// The span aliases the service's own storage for one *storage epoch*: the
/// contents never change underneath the view (a writer that meets a pin
/// clones the storage instead), and checksum verification — when
/// the integrity layer is on — happened once at pin time instead of per
/// element copied.  Destroying (or release()-ing) the view unpins the
/// epoch; services assert pin/unpin balance when the segment is freed.
class PinnedFloats {
 public:
  PinnedFloats() = default;
  /// `unpin` runs exactly once, at release()/destruction (may be empty).
  PinnedFloats(std::span<const float> view, std::function<void()> unpin)
      : view_(view), unpin_(std::move(unpin)) {}
  PinnedFloats(const PinnedFloats&) = delete;
  PinnedFloats& operator=(const PinnedFloats&) = delete;
  PinnedFloats(PinnedFloats&& other) noexcept { *this = std::move(other); }
  /// Self-move safe: without the identity guard the release() would unpin
  /// the very epoch `other` is about to hand over, leaving a dangling span
  /// and a double-unpin at destruction.
  PinnedFloats& operator=(PinnedFloats&& other) noexcept {
    if (this != &other) {
      release();
      view_ = std::exchange(other.view_, {});
      unpin_ = std::exchange(other.unpin_, nullptr);
    }
    return *this;
  }
  ~PinnedFloats() { release(); }

  [[nodiscard]] std::span<const float> span() const { return view_; }
  [[nodiscard]] const float* data() const { return view_.data(); }
  [[nodiscard]] std::size_t size() const { return view_.size(); }
  [[nodiscard]] bool empty() const { return view_.empty(); }

  /// Unpins early (idempotent); the span must not be used afterwards.
  void release() noexcept {
    if (unpin_) {
      unpin_();
      unpin_ = nullptr;
    }
    view_ = {};
  }

 private:
  std::span<const float> view_;
  std::function<void()> unpin_;
};

class SmbService {
 public:
  virtual ~SmbService() = default;

  // --- segment lifecycle -------------------------------------------------

  /// Creates a float segment of `count` elements under `key`.
  virtual Handle create_floats(ShmKey key, std::size_t count) = 0;
  /// Attaches to an existing float segment; `count` (if nonzero) must match.
  virtual Handle attach_floats(ShmKey key, std::size_t count) = 0;
  /// Creates a counter segment of `count` int64 slots (zero-initialised).
  virtual Handle create_counters(ShmKey key, std::size_t count) = 0;
  virtual Handle attach_counters(ShmKey key, std::size_t count) = 0;
  /// Drops one reference; the segment is freed when the creator and all
  /// attachments released it.
  virtual void release(Handle handle) = 0;
  /// Elements in the segment.
  [[nodiscard]] virtual std::size_t size(Handle handle) const = 0;

  // --- float segment data path -------------------------------------------

  virtual void read(Handle handle, std::span<float> dst, std::size_t offset) const = 0;

  /// Zero-copy read: pins the segment's current storage epoch and returns a
  /// view of `count` floats at `offset` directly into it.  The view stays
  /// consistent until released (writers copy-on-write around it); integrity
  /// verification happens once at pin time.
  /// The view escapes to the caller by design — that is the whole contract.
  [[nodiscard]] virtual SHMCAFFE_PIN_ESCAPE PinnedFloats read_pinned(
      Handle handle, std::size_t count, std::size_t offset = 0) const = 0;

  virtual void write(Handle handle, std::span<const float> src, std::size_t offset) = 0;
  /// Server-side accumulate: dst[i] += src[i] for the full (equal) lengths.
  /// The source is read in place, not copied, so no one may write it while
  /// the accumulate runs: a SEASGD delta segment's one writer never overlaps
  /// its own accumulate (§III-G T.A1-T.A4).
  virtual void accumulate(Handle src, Handle dst) = 0;

  // --- counter segment ops -----------------------------------------------

  [[nodiscard]] virtual std::int64_t load(Handle handle, std::size_t index) const = 0;
  virtual void store(Handle handle, std::size_t index, std::int64_t value) = 0;
  virtual std::int64_t fetch_add(Handle handle, std::size_t index, std::int64_t delta) = 0;

  // --- update notification -----------------------------------------------

  /// Monotone version, bumped by every write/accumulate to the segment.
  [[nodiscard]] virtual std::uint64_t version(Handle handle) const = 0;
  /// Blocks until version(handle) >= min_version or `timeout` elapses.
  /// Returns the version seen, or nullopt on timeout.  An implementation
  /// with replicas resumes the wait on a survivor after a failover instead
  /// of burning the deadline on a dead primary.
  SHMCAFFE_BLOCKS virtual std::optional<std::uint64_t> wait_version_at_least(
      Handle handle, std::uint64_t min_version, std::chrono::nanoseconds timeout) const = 0;
};

}  // namespace shmcaffe::smb
