#include "recovery/replicated_smb.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace shmcaffe::recovery {

using smb::Handle;
using smb::OpTag;
using smb::ShmKey;
using smb::SmbError;
using smb::SmbNotFound;
using smb::SmbUnavailable;

ReplicatedSmb::ReplicatedSmb(std::vector<smb::SmbServer*> replicas, bool read_repair)
    : replicas_(std::move(replicas)), read_repair_(read_repair) {
  if (replicas_.empty()) throw SmbError("replicated SMB needs at least one replica");
  for (const smb::SmbServer* replica : replicas_) {
    if (replica == nullptr) throw SmbError("replicated SMB replica must not be null");
  }
  live_.assign(replicas_.size(), true);
}

void ReplicatedSmb::require_live_locked() const SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    // A replica that fail-stopped since we last talked to it is noticed
    // here, so failovers happen eagerly instead of on the next throw.
    if (live_[i] && replicas_[i]->failed()) mark_failed_locked(i);
  }
  if (std::none_of(live_.begin(), live_.end(), [](bool alive) { return alive; })) {
    throw SmbUnavailable("all SMB replicas have fail-stopped");
  }
}

void ReplicatedSmb::mark_failed_locked(std::size_t index) const
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  if (!live_[index]) return;
  live_[index] = false;
  if (index != active_) return;  // a backup died: no failover needed
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!live_[i]) continue;
    active_ = i;
    service_epoch_ = next_service_epoch(service_epoch_);
    failovers_ += 1;
    failover_log_.push_back(static_cast<int>(index));
    return;
  }
  // No survivor to promote; require_live_locked() reports the total loss.
}

void ReplicatedSmb::mark_failed_locked(const smb::SmbServer* server) const
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i] == server) {
      mark_failed_locked(i);
      return;
    }
  }
}

ReplicatedSmb::LogicalSegment& ReplicatedSmb::segment_locked(Handle handle) const
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  const auto it = segments_.find(handle.access_key);
  if (it == segments_.end()) {
    throw SmbError("unknown logical access key " + std::to_string(handle.access_key));
  }
  return it->second;
}

void ReplicatedSmb::ensure_resolved_locked(LogicalSegment& segment) const
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  if (epoch_is_current(segment.resolved_service_epoch, service_epoch_)) return;
  // Fenced: the segment was last resolved under an older epoch.  Probe the
  // segment on every survivor (the Fig. 2 attach-by-SHM-key slave path) to
  // confirm the canonical physical handles are still backed, then stamp the
  // new epoch.  The long-lived physical handles themselves stay canonical —
  // a functional SmbServer never re-keys live segments.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!live_[i]) continue;
    try {
      const Handle probe = segment.counters
                               ? replicas_[i]->attach_counters(segment.key, segment.count)
                               : replicas_[i]->attach_floats(segment.key, segment.count);
      replicas_[i]->release(probe);
    } catch (const SmbUnavailable&) {
      mark_failed_locked(i);
    }
  }
  require_live_locked();
  segment.resolved_service_epoch = service_epoch_;
}

Handle ReplicatedSmb::create_segment(ShmKey key, std::size_t count, bool counters) {
  std::scoped_lock lock(mirror_mutex_);
  require_live_locked();
  if (key_to_logical_.contains(key)) {
    throw SmbError("SHM key already exists: " + std::to_string(key));
  }
  LogicalSegment segment;
  segment.key = key;
  segment.counters = counters;
  segment.count = count;
  segment.refcount = 1;
  segment.physical.assign(replicas_.size(), Handle{});
  try {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i]) continue;
      try {
        segment.physical[i] = counters ? replicas_[i]->create_counters(key, count)
                                       : replicas_[i]->create_floats(key, count);
      } catch (const SmbUnavailable&) {
        mark_failed_locked(i);
      }
    }
    require_live_locked();
  } catch (...) {
    // Misuse (capacity, duplicate key) or total loss: roll back the partial
    // creation so the ensemble stays consistent across replicas.
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i] || !segment.physical[i].valid()) continue;
      try {
        replicas_[i]->release(segment.physical[i]);
      } catch (const SmbError&) {
      }
    }
    throw;
  }
  segment.resolved_service_epoch = service_epoch_;
  const std::uint64_t logical = next_logical_key_++;
  key_to_logical_.emplace(key, logical);
  segments_.emplace(logical, std::move(segment));
  return Handle{logical};
}

Handle ReplicatedSmb::attach_segment(ShmKey key, std::size_t count, bool counters) {
  std::scoped_lock lock(mirror_mutex_);
  require_live_locked();
  const auto it = key_to_logical_.find(key);
  if (it == key_to_logical_.end()) {
    throw SmbNotFound("no segment with SHM key " + std::to_string(key));
  }
  LogicalSegment& segment = segments_.at(it->second);
  if (segment.counters != counters) throw SmbError("segment kind mismatch");
  if (count != 0 && count != segment.count) {
    throw SmbError("segment size mismatch: requested " + std::to_string(count) +
                   ", exists with " + std::to_string(segment.count));
  }
  segment.refcount += 1;
  return Handle{it->second};
}

Handle ReplicatedSmb::create_floats(ShmKey key, std::size_t count) {
  return create_segment(key, count, /*counters=*/false);
}

Handle ReplicatedSmb::attach_floats(ShmKey key, std::size_t count) {
  return attach_segment(key, count, /*counters=*/false);
}

Handle ReplicatedSmb::create_counters(ShmKey key, std::size_t count) {
  return create_segment(key, count, /*counters=*/true);
}

Handle ReplicatedSmb::attach_counters(ShmKey key, std::size_t count) {
  return attach_segment(key, count, /*counters=*/true);
}

void ReplicatedSmb::release(Handle handle) {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  if (segment.refcount <= 0) {
    throw SmbError("double release of segment with SHM key " + std::to_string(segment.key));
  }
  segment.refcount -= 1;
  if (segment.refcount > 0) return;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (!live_[i] || !segment.physical[i].valid()) continue;
    try {
      replicas_[i]->release(segment.physical[i]);
    } catch (const SmbUnavailable&) {
      mark_failed_locked(i);
    }
  }
  key_to_logical_.erase(segment.key);
  segments_.erase(handle.access_key);
}

std::size_t ReplicatedSmb::size(Handle handle) const {
  std::scoped_lock lock(mirror_mutex_);
  return segment_locked(handle).count;
}

void ReplicatedSmb::read(Handle handle, std::span<float> dst, std::size_t offset) const {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    try {
      // mirror_mutex_ stays held across the replica call: failover and
      // read-repair mutate active_/live_ mid-loop, and a racing mutation
      // could otherwise land between the failed attempt and the retry.
      // lint:allow-next-line(no-blocking-under-lock)
      replicas_[active_]->read(segment.physical[active_], dst, offset);
      return;
    } catch (const SmbUnavailable&) {
      mark_failed_locked(active_);
    } catch (const smb::SmbCorruption&) {
      // The active copy failed checksum verification.  Vote among the
      // verify-clean replicas, rewrite the bad copy, and retry the read;
      // unrepairable (no clean copy) or repair-off propagates the error so
      // the trainer can degrade to a checkpoint rollback.
      if (!read_repair_ || !vote_and_repair_locked(segment, nullptr, nullptr)) throw;
    }
  }
}

smb::PinnedFloats ReplicatedSmb::read_pinned(Handle handle, std::size_t count,
                                             std::size_t offset) const {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    try {
      // Checksum verification happens inside the replica at pin time; the
      // ensemble charges zero copy bytes (the view aliases replica memory).
      // Pinning under mirror_mutex_ is safe against pin-then-lock: the pin
      // targets the replica's own segment mutex, never the ensemble's, and
      // the mutex must be held so active_ cannot fail over mid-pin.
      // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
      return replicas_[active_]->read_pinned(segment.physical[active_], count, offset);
    } catch (const SmbUnavailable&) {
      mark_failed_locked(active_);
    } catch (const smb::SmbCorruption&) {
      // Same degraded-mode contract as read(): vote-repair then re-pin, or
      // propagate when no clean copy exists.
      if (!read_repair_ || !vote_and_repair_locked(segment, nullptr, nullptr)) throw;
    }
  }
}

void ReplicatedSmb::mirror_mutation_locked(std::initializer_list<LogicalSegment*> segments,
                                           const MutationFn& op)
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  const OpTag tag{kMirrorWriter, ++mirror_seq_};
  std::vector<bool> applied(replicas_.size(), false);
  for (;;) {
    require_live_locked();
    for (LogicalSegment* segment : segments) ensure_resolved_locked(*segment);
    bool any_failure = false;
    std::exception_ptr corruption;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i]) continue;
      try {
        op(i, tag);
        applied[i] = true;
      } catch (const SmbUnavailable&) {
        mark_failed_locked(i);
        any_failure = true;
      } catch (const smb::SmbCorruption&) {
        // Replica `i` refused the op because a touched segment failed
        // verification (the op was NOT applied there — verification runs
        // before the tag is recorded).  Keep fanning out so the clean
        // replicas apply the op first; the repair below then only has to
        // rewrite the copies that actually refused.
        corruption = std::current_exception();
        any_failure = true;
      }
    }
    if (corruption != nullptr) {
      // Vote-and-repair every touched segment, then replay the whole
      // fan-out under the same tag: replicas that applied it (or were
      // repaired under it) drop the replay.  An unrepairable segment
      // rethrows and the mutation surfaces as corrupt to the trainer.
      if (!read_repair_) std::rethrow_exception(corruption);
      for (LogicalSegment* segment : segments) {
        if (!vote_and_repair_locked(*segment, &tag, &applied)) {
          std::rethrow_exception(corruption);
        }
      }
    }
    if (!any_failure) return;
    // A replica fail-stopped (or was repaired) mid-fan-out: fail over and
    // replay the in-flight op under the *same* tag.  Survivors that already
    // applied it drop the replay (idempotence), so W_g is never
    // double-updated.
  }
}

void ReplicatedSmb::write(Handle handle, std::span<const float> src, std::size_t offset) {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  // Holding mirror_mutex_ across the fan-out IS the mirror protocol: it
  // serialises every mutation into the ensemble total order (OpTag seq).
  // lint:allow-next-line(no-blocking-under-lock)
  mirror_mutation_locked({&segment}, [&](std::size_t i, OpTag tag) {
    replicas_[i]->write_tagged(segment.physical[i], src, offset, tag);
  });
}

void ReplicatedSmb::accumulate(Handle src, Handle dst) {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& source = segment_locked(src);
  LogicalSegment& dest = segment_locked(dst);
  // Same mirror-total-order argument as write().
  // lint:allow-next-line(no-blocking-under-lock)
  mirror_mutation_locked({&source, &dest}, [&](std::size_t i, OpTag tag) {
    replicas_[i]->accumulate_tagged(source.physical[i], dest.physical[i], tag);
  });
}

std::int64_t ReplicatedSmb::load(Handle handle, std::size_t index) const {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    try {
      return replicas_[active_]->load(segment.physical[active_], index);
    } catch (const SmbUnavailable&) {
      mark_failed_locked(active_);
    }
  }
}

void ReplicatedSmb::store(Handle handle, std::size_t index, std::int64_t value) {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    bool any_failure = false;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i]) continue;
      try {
        replicas_[i]->store(segment.physical[i], index, value);
      } catch (const SmbUnavailable&) {
        mark_failed_locked(i);
        any_failure = true;
      }
    }
    if (!any_failure) return;  // store is idempotent: a replay is harmless
  }
}

std::int64_t ReplicatedSmb::fetch_add(Handle handle, std::size_t index, std::int64_t delta) {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    std::optional<std::int64_t> result;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i]) continue;
      try {
        const std::int64_t prior = replicas_[i]->fetch_add(segment.physical[i], index, delta);
        // Mirrored mutations are totally ordered by the mirror mutex, so
        // every replica returns the same prior value; keep the first.
        if (!result.has_value()) result = prior;
      } catch (const SmbUnavailable&) {
        mark_failed_locked(i);
      }
    }
    // Retry only if *no* replica applied the op — fetch_add is not
    // idempotent, so a partial application must not be replayed.
    if (result.has_value()) return *result;
  }
}

std::uint64_t ReplicatedSmb::version(Handle handle) const {
  std::scoped_lock lock(mirror_mutex_);
  LogicalSegment& segment = segment_locked(handle);
  for (;;) {
    require_live_locked();
    ensure_resolved_locked(segment);
    try {
      return replicas_[active_]->version(segment.physical[active_]);
    } catch (const SmbUnavailable&) {
      mark_failed_locked(active_);
    }
  }
}

std::optional<std::uint64_t> ReplicatedSmb::wait_version_at_least(
    Handle handle, std::uint64_t min_version, std::chrono::nanoseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    smb::SmbServer* server = nullptr;
    Handle physical;
    {
      std::scoped_lock lock(mirror_mutex_);
      require_live_locked();
      LogicalSegment& segment = segment_locked(handle);
      ensure_resolved_locked(segment);
      server = replicas_[active_];
      physical = segment.physical[active_];
    }
    // Block OUTSIDE the mirror mutex: the write that satisfies this wait
    // must be able to enter the fan-out path concurrently.
    const auto remaining =
        std::max(std::chrono::nanoseconds::zero(),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     deadline - std::chrono::steady_clock::now()));
    try {
      return server->wait_version_at_least(physical, min_version, remaining);
    } catch (const SmbUnavailable&) {
      // Primary died mid-wait: fail over and resume the wait on the
      // survivor with whatever deadline budget is left.
      std::scoped_lock lock(mirror_mutex_);
      mark_failed_locked(server);
      require_live_locked();
    }
  }
}

ServiceEpoch ReplicatedSmb::service_epoch() const {
  std::scoped_lock lock(mirror_mutex_);
  return service_epoch_;
}

int ReplicatedSmb::active_replica() const {
  std::scoped_lock lock(mirror_mutex_);
  return static_cast<int>(active_);
}

int ReplicatedSmb::live_replica_count() const {
  std::scoped_lock lock(mirror_mutex_);
  return static_cast<int>(std::count(live_.begin(), live_.end(), true));
}

std::uint64_t ReplicatedSmb::failover_count() const {
  std::scoped_lock lock(mirror_mutex_);
  return failovers_;
}

std::vector<int> ReplicatedSmb::failover_log() const {
  std::scoped_lock lock(mirror_mutex_);
  return failover_log_;
}

bool ReplicatedSmb::vote_and_repair_locked(LogicalSegment& segment, const OpTag* inflight,
                                           const std::vector<bool>* applied) const
    SHMCAFFE_REQUIRES(mirror_mutex_) {
  SHMCAFFE_ASSERT_HELD(mirror_mutex_);
  if (segment.counters) return true;  // counter segments carry no checksums
  const std::size_t n = replicas_.size();

  // Verify every live copy; remember which are clean and which markers the
  // corrupt ones were poisoned with.
  std::vector<bool> clean(n, false);
  std::vector<std::uint64_t> markers;
  for (std::size_t i = 0; i < n; ++i) {
    if (!live_[i]) continue;
    try {
      const auto bad = replicas_[i]->verify_segment(segment.physical[i]);
      clean[i] = bad.empty();
      for (const auto& chunk : bad) {
        if (chunk.marker != 0 &&
            std::find(markers.begin(), markers.end(), chunk.marker) == markers.end()) {
          markers.push_back(chunk.marker);
        }
      }
    } catch (const SmbUnavailable&) {
      mark_failed_locked(i);
    }
  }

  // If the in-flight mutation already landed on some replica, only copies
  // that applied it may vote: a winner drawn from the others would silently
  // roll the op back while the fan-out's retry gets replay-dropped.  No clean
  // applied copy -> the op survives only on corrupt copies -> unrepairable.
  const bool applied_any = inflight != nullptr && applied != nullptr &&
                           [&] {
                             for (std::size_t i = 0; i < n; ++i) {
                               if (live_[i] && (*applied)[i]) return true;
                             }
                             return false;
                           }();
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (!live_[i] || !clean[i]) continue;
    if (applied_any && !(*applied)[i]) continue;
    candidates.push_back(i);
  }
  if (candidates.empty()) return false;  // no trustworthy copy: degrade to rollback

  // Vote by content equality among the candidates; ties go to the
  // lowest-index group (first seen wins under the strict > below).
  std::vector<std::vector<float>> contents(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    contents[c].resize(segment.count);
    // The vote must read a frozen ensemble: a concurrent mutation would
    // split the electorate.  lint:allow-next-line(no-blocking-under-lock)
    replicas_[candidates[c]]->read_raw(segment.physical[candidates[c]], contents[c]);
  }
  std::size_t best = 0;
  std::size_t best_votes = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    std::size_t votes = 0;
    for (std::size_t d = 0; d < candidates.size(); ++d) {
      if (contents[d] == contents[c]) votes += 1;
    }
    if (votes > best_votes) {
      best_votes = votes;
      best = c;
    }
  }
  const std::vector<float>& winner = contents[best];

  // Rewrite every live copy that diverges from the winner.  Replicas that
  // already recorded the in-flight tag would drop a tagged rewrite, so they
  // are healed with an untagged write; replicas that have not applied the op
  // are rewritten under the in-flight tag itself, so the fan-out's replay is
  // dropped there instead of double-applying on top of the healed content.
  std::vector<float> content(segment.count);
  for (std::size_t i = 0; i < n; ++i) {
    if (!live_[i]) continue;
    try {
      // Repair rewrites must land before any new mutation enters the
      // mirror order — all three replica calls stay under mirror_mutex_.
      // lint:allow-next-line(no-blocking-under-lock)
      replicas_[i]->read_raw(segment.physical[i], content);
      const bool healthy = clean[i] && content == winner;
      if (applied_any && !(*applied)[i]) {
        // lint:allow-next-line(no-blocking-under-lock)
        replicas_[i]->write_tagged(segment.physical[i], winner, 0, *inflight);
        if (!healthy) repairs_ += 1;
      } else if (!healthy) {
        // lint:allow-next-line(no-blocking-under-lock)
        replicas_[i]->write_tagged(segment.physical[i], winner, 0, OpTag{});
        repairs_ += 1;
      }
    } catch (const SmbUnavailable&) {
      mark_failed_locked(i);
    }
  }
  for (std::uint64_t marker : markers) {
    if (std::find(repaired_markers_.begin(), repaired_markers_.end(), marker) ==
        repaired_markers_.end()) {
      repaired_markers_.push_back(marker);
    }
  }
  return true;
}

std::uint64_t ReplicatedSmb::scrub() {
  std::scoped_lock lock(mirror_mutex_);
  require_live_locked();
  scrub_passes_ += 1;
  // Walk in ascending SHM-key order so scrub behaviour (and the repair
  // counts it produces) is deterministic across runs.
  std::vector<std::pair<ShmKey, std::uint64_t>> keys(key_to_logical_.begin(),
                                                     key_to_logical_.end());
  std::sort(keys.begin(), keys.end());
  std::uint64_t repaired = 0;
  for (const auto& [key, logical] : keys) {
    LogicalSegment& segment = segments_.at(logical);
    if (segment.counters) continue;
    ensure_resolved_locked(segment);
    bool any_bad = false;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (!live_[i]) continue;
      try {
        if (!replicas_[i]->verify_segment(segment.physical[i]).empty()) any_bad = true;
      } catch (const SmbUnavailable&) {
        mark_failed_locked(i);
      }
    }
    if (!any_bad) continue;
    // An unrepairable segment is left as-is here (vote returns false): the
    // next read surfaces the SmbCorruption and the trainer rolls back.
    if (read_repair_ && vote_and_repair_locked(segment, nullptr, nullptr)) repaired += 1;
  }
  return repaired;
}

std::size_t ReplicatedSmb::inject_corruption(std::size_t replica, ShmKey key,
                                             std::uint64_t marker, int bit_flips) {
  std::scoped_lock lock(mirror_mutex_);
  return replicas_.at(replica)->corrupt_floats(key, marker, bit_flips);
}

std::vector<std::uint64_t> ReplicatedSmb::detected_markers() const {
  std::scoped_lock lock(mirror_mutex_);
  std::vector<std::uint64_t> all;
  for (const smb::SmbServer* replica : replicas_) {
    for (std::uint64_t marker : replica->detected_markers()) {
      if (std::find(all.begin(), all.end(), marker) == all.end()) all.push_back(marker);
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::uint64_t ReplicatedSmb::corruptions_detected() const {
  return detected_markers().size();
}

std::vector<std::uint64_t> ReplicatedSmb::repaired_markers() const {
  std::scoped_lock lock(mirror_mutex_);
  std::vector<std::uint64_t> result = repaired_markers_;
  std::sort(result.begin(), result.end());
  return result;
}

std::uint64_t ReplicatedSmb::repairs() const {
  std::scoped_lock lock(mirror_mutex_);
  return repairs_;
}

std::uint64_t ReplicatedSmb::scrub_passes() const {
  std::scoped_lock lock(mirror_mutex_);
  return scrub_passes_;
}

}  // namespace shmcaffe::recovery
