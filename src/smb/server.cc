#include "smb/server.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <set>
#include <thread>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"

namespace shmcaffe::smb {

namespace {
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Segment floats handed to one work-pool chunk by accumulate (element-wise
// add: each element is written by exactly one chunk, so the sum is bitwise
// identical for any pool width).
constexpr std::size_t kAccumulateGrain = 16384;
}  // namespace

SmbServer::SmbServer(SmbServerOptions options) : options_(options) {
  if (options_.capacity_bytes <= 0) {
    throw SmbError("SMB server capacity must be positive");
  }
  if (options_.integrity.verify_on_read && options_.integrity.chunk_floats == 0) {
    throw SmbError("integrity chunk size must be positive");
  }
}

void SmbServer::throw_if_failed() const {
  if (failed()) throw SmbUnavailable("SMB server has fail-stopped");
}

std::int64_t SmbServer::footprint(const Segment& segment) {
  if (segment.kind == Kind::kFloats) {
    // lint:allow-next-line(lock-region) segment sizes are fixed at create
    return static_cast<std::int64_t>(segment.storage->data.size() * sizeof(float));
  }
  return static_cast<std::int64_t>(segment.counters.size() * sizeof(std::int64_t));
}

Handle SmbServer::create_segment(ShmKey key, std::size_t count, Kind kind) {
  throw_if_failed();
  if (count == 0) throw SmbError("segment size must be positive");
  auto segment = std::make_shared<Segment>();
  segment->key = key;
  segment->kind = kind;
  if (kind == Kind::kFloats) {
    // lint:allow-next-line(lock-region) fresh segment, not yet published
    segment->storage->data.assign(count, 0.0F);
    if (options_.integrity.verify_on_read) {
      const std::size_t chunks =
          (count + options_.integrity.chunk_floats - 1) / options_.integrity.chunk_floats;
      std::scoped_lock lock(segment->data_mutex);
      segment->chunk_sums.resize(chunks);
      segment->chunk_markers.assign(chunks, 0);
      refresh_chunks_locked(*segment, 0, count);
    }
  } else {
    segment->counters = std::vector<std::atomic<std::int64_t>>(count);
  }

  std::unique_lock lock(table_mutex_);
  // refcount is table_mutex_ state: set it under the same lock that
  // publishes the segment, so the guard covers its whole lifetime.
  segment->refcount = 1;
  if (key_to_access_.contains(key)) {
    throw SmbError("SHM key already exists: " + std::to_string(key));
  }
  const std::int64_t bytes = footprint(*segment);
  if (stats_.bytes_in_use + bytes > options_.capacity_bytes) {
    throw SmbError("SMB server out of granted memory");
  }
  const std::uint64_t access_key = next_access_key_++;
  by_access_key_.emplace(access_key, std::move(segment));
  key_to_access_.emplace(key, access_key);
  stats_.bytes_in_use += bytes;
  stats_.creates += 1;
  return Handle{access_key};
}

const char* SmbServer::kind_name(Kind kind) {
  return kind == Kind::kFloats ? "floats" : "counters";
}

Handle SmbServer::attach_segment(ShmKey key, std::size_t count, Kind kind) {
  throw_if_failed();
  std::unique_lock lock(table_mutex_);
  const auto it = key_to_access_.find(key);
  if (it == key_to_access_.end()) {
    throw SmbNotFound("no segment with SHM key " + std::to_string(key));
  }
  const std::shared_ptr<Segment>& segment = by_access_key_.at(it->second);
  if (segment->kind != kind) {
    throw SmbError("segment kind mismatch for SHM key " + std::to_string(key) +
                   " (access key " + std::to_string(it->second) + "): requested " +
                   kind_name(kind) + ", exists as " + kind_name(segment->kind));
  }
  const std::size_t actual =  // lint:allow(lock-region) sizes fixed at create
      kind == Kind::kFloats ? segment->storage->data.size() : segment->counters.size();
  if (count != 0 && count != actual) {
    throw SmbError("segment size mismatch: requested " + std::to_string(count) +
                   ", exists with " + std::to_string(actual));
  }
  segment->refcount += 1;
  stats_.attaches += 1;
  return Handle{it->second};
}

Handle SmbServer::create_floats(ShmKey key, std::size_t count) {
  return create_segment(key, count, Kind::kFloats);
}

Handle SmbServer::attach_floats(ShmKey key, std::size_t count) {
  return attach_segment(key, count, Kind::kFloats);
}

Handle SmbServer::create_counters(ShmKey key, std::size_t count) {
  return create_segment(key, count, Kind::kCounters);
}

Handle SmbServer::attach_counters(ShmKey key, std::size_t count) {
  return attach_segment(key, count, Kind::kCounters);
}

void SmbServer::release(Handle handle) {
  throw_if_failed();
  std::unique_lock lock(table_mutex_);
  const auto it = by_access_key_.find(handle.access_key);
  if (it == by_access_key_.end()) {
    throw SmbError("release of unknown access key " + std::to_string(handle.access_key) +
                   " (already fully released, or never issued by this server)");
  }
  Segment& segment = *it->second;
  if (segment.refcount <= 0) {
    // A freed segment is erased from the table, so refcount can only be
    // non-positive if a raced double-release slipped past the erase; refuse
    // to drive it negative and steal a live attachment's reference.
    throw SmbError("double release of segment with SHM key " + std::to_string(segment.key) +
                   " (access key " + std::to_string(handle.access_key) + ")");
  }
  if (segment.refcount == 1 && segment.kind == Kind::kFloats) {
    // Final release: every pinned zero-copy view must have been unpinned.
    // A leaked pin means some reader still aliases the storage about to be
    // dropped from the table -- refuse, keeping the attachment alive.
    const std::uint64_t issued = segment.pins_issued.load(std::memory_order_acquire);
    const std::uint64_t released = segment.pins_released.load(std::memory_order_acquire);
    if (issued != released) {
      throw SmbError("segment with SHM key " + std::to_string(segment.key) +
                     " released with " + std::to_string(issued - released) +
                     " outstanding pinned read view(s)");
    }
  }
  segment.refcount -= 1;
  if (segment.refcount == 0) {
    stats_.bytes_in_use -= footprint(segment);
    key_to_access_.erase(segment.key);
    by_access_key_.erase(it);
  }
}

std::shared_ptr<SmbServer::Segment> SmbServer::find(Handle handle) const {
  throw_if_failed();
  std::shared_lock lock(table_mutex_);
  const auto it = by_access_key_.find(handle.access_key);
  if (it == by_access_key_.end()) {
    throw SmbError("unknown access key " + std::to_string(handle.access_key));
  }
  return it->second;
}

std::shared_ptr<SmbServer::Segment> SmbServer::find(Handle handle, Kind kind) const {
  std::shared_ptr<Segment> segment = find(handle);
  if (segment->kind != kind) {
    throw SmbError("operation not valid for this segment kind");
  }
  return segment;
}

std::size_t SmbServer::size(Handle handle) const {
  const std::shared_ptr<Segment> segment = find(handle);
  // lint:allow-next-line(lock-region) segment sizes are fixed at create
  return segment->kind == Kind::kFloats ? segment->storage->data.size()
                                        : segment->counters.size();
}

void SmbServer::read(Handle handle, std::span<float> dst, std::size_t offset) const {
  block_while_frozen();
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  std::scoped_lock lock(segment->data_mutex);
  if (offset + dst.size() > segment->storage->data.size()) {
    throw SmbError("read out of segment bounds");
  }
  if (options_.integrity.verify_on_read) {
    verify_chunks_locked(*segment, offset, dst.size());
  }
  std::copy_n(segment->storage->data.data() + offset, dst.size(), dst.begin());
  std::unique_lock table(table_mutex_);
  stats_.reads += 1;
  stats_.bytes_read += static_cast<std::int64_t>(dst.size() * sizeof(float));
}

void SmbServer::read_raw(Handle handle, std::span<float> dst, std::size_t offset) const {
  block_while_frozen();
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  std::scoped_lock lock(segment->data_mutex);
  if (offset + dst.size() > segment->storage->data.size()) {
    throw SmbError("read out of segment bounds");
  }
  std::copy_n(segment->storage->data.data() + offset, dst.size(), dst.begin());
  std::unique_lock table(table_mutex_);
  stats_.reads += 1;
  stats_.bytes_read += static_cast<std::int64_t>(dst.size() * sizeof(float));
}

PinnedFloats SmbServer::read_pinned(Handle handle, std::size_t count,
                                    std::size_t offset) const {
  block_while_frozen();
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  // Same ordinal + gate pattern as write_tagged's torn writes.
  const std::uint64_t ordinal = pin_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::optional<PinnedFlip> flip;
  if (pinned_armed_count_.load(std::memory_order_acquire) > 0) {
    std::unique_lock table(table_mutex_);
    const auto it = armed_pinned_.find(ordinal);
    if (it != armed_pinned_.end()) {
      flip = it->second;
      armed_pinned_.erase(it);
      pinned_armed_count_.fetch_sub(1, std::memory_order_release);
    }
  }
  std::shared_ptr<SegmentStorage> epoch;
  bool flipped = false;
  {
    std::scoped_lock lock(segment->data_mutex);
    if (offset + count > segment->storage->data.size()) {
      throw SmbError("read out of segment bounds");
    }
    // Verification happens ONCE, at pin time: writers clone a pinned epoch,
    // so only a fault (below) can change its bytes afterwards.
    if (options_.integrity.verify_on_read) {
      verify_chunks_locked(*segment, offset, count);
    }
    epoch = pin_live_locked(*segment);
    if (flip.has_value()) {
      flipped = flip_bits_locked(*segment, flip->marker, flip->bit_flips) > 0;
    }
  }
  {
    std::unique_lock table(table_mutex_);
    stats_.pinned_reads += 1;
    stats_.bytes_pinned += static_cast<std::int64_t>(count * sizeof(float));
    if (flipped) pinned_flipped_.push_back(flip->marker);
  }
  const std::span<const float> view{epoch->data.data() + offset, count};
  return PinnedFloats(view, [segment, epoch = std::move(epoch)] { unpin(*segment, *epoch); });
}

std::shared_ptr<SmbServer::SegmentStorage> SmbServer::pin_live_locked(Segment& segment)
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  segment.storage->pins.fetch_add(1, std::memory_order_relaxed);
  segment.pins_issued.fetch_add(1, std::memory_order_relaxed);
  return segment.storage;
}

void SmbServer::unpin(Segment& segment, SegmentStorage& epoch) {
  // The decrement happens under the data mutex, so the reader's last use
  // of the view happens-before a writer that then mutates in place.
  std::scoped_lock lock(segment.data_mutex);
  epoch.pins.fetch_sub(1, std::memory_order_relaxed);
  segment.pins_released.fetch_add(1, std::memory_order_relaxed);
}

void SmbServer::prepare_write_locked(Segment& segment) SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  if (segment.storage->pins.load(std::memory_order_relaxed) == 0) return;
  // COW clone control block: only taken while readers hold pins, and the
  // float payload itself is arena-backed.
  // lint:allow-next-line(no-hot-alloc) see above
  auto fresh = std::make_shared<SegmentStorage>();
  const std::size_t count = segment.storage->data.size();
  fresh->data.ensure(count);
  std::memcpy(fresh->data.data(), segment.storage->data.data(), count * sizeof(float));
  // The retired epoch stays alive — and immutable — through the
  // shared_ptr held by each outstanding pinned view.
  segment.storage = std::move(fresh);
  std::unique_lock table(table_mutex_);
  stats_.cow_clones += 1;
}

bool SmbServer::replayed_locked(Segment& segment, OpTag tag)
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  if (!tag.tagged()) return false;
  std::uint64_t& applied = segment.applied_tags[tag.writer];
  if (tag.sequence <= applied) return true;
  applied = tag.sequence;
  return false;
}

void SmbServer::write(Handle handle, std::span<const float> src, std::size_t offset) {
  write_tagged(handle, src, offset, OpTag{});
}

void SmbServer::write_tagged(Handle handle, std::span<const float> src, std::size_t offset,
                             OpTag tag) {
  block_while_frozen();
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  // Ordinal + armed-torn lookup happen before the data lock (the table lock
  // ranks above the segment lock, so it cannot be taken inside).  The atomic
  // gate keeps the fault-free path free of the extra table acquisition.
  const std::uint64_t ordinal = write_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  double torn_fraction = -1.0;
  if (torn_armed_count_.load(std::memory_order_acquire) > 0) {
    std::unique_lock table(table_mutex_);
    const auto it = armed_torn_.find(ordinal);
    if (it != armed_torn_.end()) {
      torn_fraction = it->second;
      armed_torn_.erase(it);
      torn_armed_count_.fetch_sub(1, std::memory_order_release);
    }
  }
  bool torn = false;
  {
    std::scoped_lock lock(segment->data_mutex);
    if (offset + src.size() > segment->storage->data.size()) {
      throw SmbError("write out of segment bounds");
    }
    if (replayed_locked(*segment, tag)) {
      std::unique_lock table(table_mutex_);
      stats_.replays_dropped += 1;
      return;
    }
    // Copy-on-write first: after this the live storage has no outstanding
    // pinned readers, so the mutation below can never move floats under a
    // pinned view.
    prepare_write_locked(*segment);
    float* const floats = segment->storage->data.data();
    if (torn_fraction < 0.0 || src.empty()) {
      std::copy_n(src.begin(), src.size(), floats + offset);
      refresh_chunks_locked(*segment, offset, src.size());
    } else {
      // Torn write: the writer computed checksums for the full payload but
      // only the leading `applied` floats landed.  Perform the full write,
      // refresh the checksums, then restore the old tail and poison its
      // chunks — the stored sums now describe data that never arrived.
      torn = true;
      const std::size_t applied = std::min(
          src.size(),
          static_cast<std::size_t>(torn_fraction * static_cast<double>(src.size())));
      // cold fault-injection path: the torn tail is saved only while a torn
      // write is armed
      // lint:allow-next-line(no-hot-alloc) see above
      std::vector<float> old_tail(floats + offset + applied, floats + offset + src.size());
      std::copy_n(src.begin(), src.size(), floats + offset);
      refresh_chunks_locked(*segment, offset, src.size());
      std::copy(old_tail.begin(), old_tail.end(), floats + offset + applied);
      if (!segment->chunk_markers.empty() && applied < src.size()) {
        const std::size_t width = options_.integrity.chunk_floats;
        const std::size_t last_chunk = (offset + src.size() - 1) / width;
        for (std::size_t c = (offset + applied) / width; c <= last_chunk; ++c) {
          segment->chunk_markers[c] = kTornWriteMarkerBit | ordinal;
        }
      }
    }
    segment->version += 1;
  }
  segment->version_cv.notify_all();
  std::unique_lock table(table_mutex_);
  stats_.writes += 1;
  stats_.bytes_written += static_cast<std::int64_t>(src.size() * sizeof(float));
  if (torn) {
    stats_.torn_writes_applied += 1;
    // lint:allow-next-line(no-hot-alloc) fault-injection audit log, armed runs only
    torn_applied_.push_back(kTornWriteMarkerBit | ordinal);
  }
}

void SmbServer::accumulate(Handle src, Handle dst) {
  accumulate_tagged(src, dst, OpTag{});
}

void SmbServer::accumulate_tagged(Handle src, Handle dst, OpTag tag) {
  block_while_frozen();
  if (src == dst) throw SmbError("accumulate requires distinct segments");
  const std::shared_ptr<Segment> s = find(src, Kind::kFloats);
  const std::shared_ptr<Segment> d = find(dst, Kind::kFloats);
  // Pin the source's live epoch under its own lock, then add from it under
  // the destination lock alone, in parallel chunks on the work pool (segment
  // lock rank 200 < pool rank 500, see common/ordered_mutex.h).  Holding
  // the epoch is as sound as copying it: a delta segment has exactly one
  // writer (its worker's update thread, §III-G T.A1-T.A4), and that writer
  // never overlaps its own accumulate; a scrub that rewrites the source
  // mid-add clones the pinned epoch, as for any pin.  The pin is internal,
  // not a client read: it takes no pinned-read ordinal (fault plans keyed on
  // those stay put) and is not counted in pinned_reads or bytes_pinned.
  std::shared_ptr<SegmentStorage> epoch;
  {
    std::scoped_lock lock(s->data_mutex);
    if (options_.integrity.verify_on_read) {
      verify_chunks_locked(*s, 0, s->storage->data.size());
    }
    epoch = pin_live_locked(*s);
  }
  // Unpins under the source's lock however the add below ends.
  const PinnedFloats source(epoch->data.span(), [&s, &epoch] { unpin(*s, *epoch); });
  {
    std::scoped_lock lock(d->data_mutex);
    if (source.size() != d->storage->data.size()) {
      throw SmbError("accumulate requires equal segment sizes");
    }
    // Verify the destination BEFORE touching it: an accumulate into a
    // corrupted chunk would otherwise refresh the checksum over poisoned
    // data and launder the corruption.  Throwing here also precedes the tag
    // record, so a mirrored retry after a repair is not a replay.
    if (options_.integrity.verify_on_read) {
      verify_chunks_locked(*d, 0, d->storage->data.size());
    }
    if (replayed_locked(*d, tag)) {
      std::unique_lock table(table_mutex_);
      stats_.replays_dropped += 1;
      return;
    }
    prepare_write_locked(*d);
    float* out = d->storage->data.data();
    const float* in = source.data();
    // The accumulate is served *inside* the destination's write lock by
    // design (the server-side op IS the critical section), and the pool
    // rank (kParallelPool, 500) sits above every lock its workers could
    // want — the workers themselves never touch SMB locks.
    // lint:allow-next-line(no-blocking-under-lock)
    common::parallel::parallel_for(
        d->storage->data.size(), kAccumulateGrain,
        [&](std::size_t begin, std::size_t end) {
          // simd.h core: element-wise add, each element owned by exactly
          // one chunk — bitwise identical for any pool width or lane width.
          common::simd::add_inplace(end - begin, out + begin, in + begin);
        });
    refresh_chunks_locked(*d, 0, d->storage->data.size());
    d->version += 1;
  }
  d->version_cv.notify_all();
  std::unique_lock table(table_mutex_);
  stats_.accumulates += 1;
}

std::uint64_t SmbServer::chunk_checksum(const float* data, std::size_t count) {
  // Word-folded FNV-1a (common/simd.h): 8 bytes per multiply instead of
  // one.  Not the byte-serial FNV value, but the sums are purely internal —
  // writer and verifier share this function, and the persisted checkpoint
  // hashes keep their own byte-serial FNV (recovery/checkpoint.cc).
  return common::simd::fnv1a_words(data, count * sizeof(float));
}

void SmbServer::refresh_chunks_locked(Segment& segment, std::size_t first, std::size_t count)
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  if (segment.chunk_sums.empty() || count == 0) return;
  const std::size_t width = options_.integrity.chunk_floats;
  const std::size_t total = segment.storage->data.size();
  const std::size_t last_chunk = (first + count - 1) / width;
  for (std::size_t c = first / width; c <= last_chunk; ++c) {
    const std::size_t begin = c * width;
    segment.chunk_sums[c] = chunk_checksum(segment.storage->data.data() + begin,
                                           std::min(width, total - begin));
    segment.chunk_markers[c] = 0;
  }
}

std::size_t SmbServer::collect_corrupt_chunks_locked(Segment& segment, std::size_t first,
                                                     std::size_t count,
                                                     std::vector<CorruptChunk>& bad) const
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  if (segment.chunk_sums.empty() || count == 0) return 0;
  const std::size_t width = options_.integrity.chunk_floats;
  const std::size_t total = segment.storage->data.size();
  const std::size_t last_chunk = (first + count - 1) / width;
  for (std::size_t c = first / width; c <= last_chunk; ++c) {
    const std::size_t begin = c * width;
    const std::uint64_t sum = chunk_checksum(segment.storage->data.data() + begin,
                                             std::min(width, total - begin));
    if (sum != segment.chunk_sums[c]) {
      // lint:allow-next-line(no-hot-alloc) corruption-detected path, not steady state
      bad.push_back(CorruptChunk{c, segment.chunk_markers[c]});
    }
  }
  return last_chunk - first / width + 1;
}

void SmbServer::record_verification(std::size_t checked,
                                    const std::vector<CorruptChunk>& bad) const {
  std::unique_lock table(table_mutex_);
  stats_.chunks_verified += checked;
  stats_.corruptions_detected += bad.size();
  for (const CorruptChunk& chunk : bad) {
    if (chunk.marker == 0) continue;
    if (std::find(detected_markers_.begin(), detected_markers_.end(), chunk.marker) ==
        detected_markers_.end()) {
      // lint:allow-next-line(no-hot-alloc) corruption audit log, detected faults only
      detected_markers_.push_back(chunk.marker);
    }
  }
}

void SmbServer::verify_chunks_locked(Segment& segment, std::size_t first,
                                     std::size_t count) const
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  std::vector<CorruptChunk> bad;
  const std::size_t checked = collect_corrupt_chunks_locked(segment, first, count, bad);
  if (checked == 0) return;
  record_verification(checked, bad);
  if (!bad.empty()) {
    throw SmbCorruption("checksum mismatch in segment with SHM key " +
                        std::to_string(segment.key) + " (chunk " +
                        std::to_string(bad.front().chunk) + ", marker " +
                        std::to_string(bad.front().marker) + ")");
  }
}

std::vector<SmbServer::CorruptChunk> SmbServer::verify_segment(Handle handle) {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  std::vector<CorruptChunk> bad;
  std::size_t checked = 0;
  {
    std::scoped_lock lock(segment->data_mutex);
    checked = collect_corrupt_chunks_locked(*segment, 0, segment->storage->data.size(), bad);
  }
  if (checked != 0) record_verification(checked, bad);
  return bad;
}

std::vector<std::uint64_t> SmbServer::detected_markers() const {
  std::shared_lock lock(table_mutex_);
  std::vector<std::uint64_t> result = detected_markers_;
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::uint64_t> SmbServer::torn_applied_markers() const {
  std::shared_lock lock(table_mutex_);
  std::vector<std::uint64_t> result = torn_applied_;
  std::sort(result.begin(), result.end());
  return result;
}

std::size_t SmbServer::corrupt_floats(ShmKey key, std::uint64_t marker, int bit_flips) {
  throw_if_failed();
  std::shared_ptr<Segment> segment;
  {
    std::shared_lock lock(table_mutex_);
    const auto it = key_to_access_.find(key);
    if (it == key_to_access_.end()) return 0;
    segment = by_access_key_.at(it->second);
  }
  if (segment->kind != Kind::kFloats) return 0;
  std::scoped_lock lock(segment->data_mutex);
  // A reader runs over its pinned view without the segment lock, so a flip
  // in place into a pinned epoch would be a data race: clone the epoch
  // first, like a writer.  The flip stays silent in the live epoch, and
  // arm_pinned_corruption is the fault that lands inside a reader's pin.
  prepare_write_locked(*segment);
  return flip_bits_locked(*segment, marker, bit_flips);
}

std::size_t SmbServer::flip_bits_locked(Segment& segment, std::uint64_t marker,
                                        int bit_flips) const
    SHMCAFFE_REQUIRES(segment.data_mutex) {
  SHMCAFFE_ASSERT_HELD(segment.data_mutex);
  common::Rng rng(marker);
  // No copy-on-write here: the armed pinned corruption flips the epoch its
  // reader just pinned, on the reader's own thread, so that view observes
  // the flipped bits — the fault being modelled (verification happened at
  // pin time).
  if (segment.storage->data.empty()) return 0;
  std::set<std::size_t> chunks;
  const std::size_t width = std::max<std::size_t>(1, options_.integrity.chunk_floats);
  for (int f = 0; f < std::max(1, bit_flips); ++f) {
    const std::size_t index = rng.next_below(segment.storage->data.size());
    // Mantissa bits only: the poisoned value stays finite, so a run that
    // consumes it degrades measurably instead of NaN-ing out instantly.
    const std::uint32_t bit = 1U << rng.next_below(23);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &segment.storage->data[index], sizeof(bits));
    bits ^= bit;
    std::memcpy(&segment.storage->data[index], &bits, sizeof(bits));
    const std::size_t c = index / width;
    if (c < segment.chunk_markers.size()) segment.chunk_markers[c] = marker;
    chunks.insert(c);
  }
  // Checksums deliberately not refreshed, and the version not bumped: the
  // corruption is silent until something verifies the chunk.
  return chunks.size();
}

void SmbServer::arm_torn_write(std::uint64_t ordinal, double fraction) {
  if (ordinal == 0) throw SmbError("torn-write ordinal is 1-based");
  std::unique_lock table(table_mutex_);
  if (armed_torn_.emplace(ordinal, std::clamp(fraction, 0.0, 1.0)).second) {
    torn_armed_count_.fetch_add(1, std::memory_order_release);
  }
}

void SmbServer::arm_pinned_corruption(std::uint64_t ordinal, std::uint64_t marker,
                                      int bit_flips) {
  if (ordinal == 0) throw SmbError("pinned-read ordinal is 1-based");
  std::unique_lock table(table_mutex_);
  if (armed_pinned_.emplace(ordinal, PinnedFlip{marker, std::max(1, bit_flips)}).second) {
    pinned_armed_count_.fetch_add(1, std::memory_order_release);
  }
}

std::vector<std::uint64_t> SmbServer::pinned_corruption_markers() const {
  std::shared_lock lock(table_mutex_);
  std::vector<std::uint64_t> result = pinned_flipped_;
  std::sort(result.begin(), result.end());
  return result;
}

std::int64_t SmbServer::load(Handle handle, std::size_t index) const {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kCounters);
  if (index >= segment->counters.size()) throw SmbError("counter index out of bounds");
  return segment->counters[index].load(std::memory_order_seq_cst);
}

void SmbServer::store(Handle handle, std::size_t index, std::int64_t value) {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kCounters);
  if (index >= segment->counters.size()) throw SmbError("counter index out of bounds");
  segment->counters[index].store(value, std::memory_order_seq_cst);
}

std::int64_t SmbServer::fetch_add(Handle handle, std::size_t index, std::int64_t delta) {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kCounters);
  if (index >= segment->counters.size()) throw SmbError("counter index out of bounds");
  return segment->counters[index].fetch_add(delta, std::memory_order_seq_cst);
}

std::uint64_t SmbServer::version(Handle handle) const {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  std::scoped_lock lock(segment->data_mutex);
  return segment->version;
}

std::optional<std::uint64_t> SmbServer::wait_version_at_least(
    Handle handle, std::uint64_t min_version, std::chrono::nanoseconds timeout) const {
  const std::shared_ptr<Segment> segment = find(handle, Kind::kFloats);
  std::unique_lock lock(segment->data_mutex);
  const bool satisfied = segment->version_cv.wait_for(
      lock, timeout, [&] { return failed() || segment->version >= min_version; });
  // A fail-stop mid-wait surfaces immediately: the deadline must belong to
  // the caller's failover logic, not be burned waiting on a dead server.
  if (failed()) throw SmbUnavailable("SMB server fail-stopped during version wait");
  if (!satisfied) return std::nullopt;
  return segment->version;
}

void SmbServer::freeze_for(std::chrono::nanoseconds duration) {
  const std::int64_t until = steady_now_ns() + duration.count();
  std::int64_t current = frozen_until_ns_.load(std::memory_order_relaxed);
  while (until > current &&
         !frozen_until_ns_.compare_exchange_weak(current, until, std::memory_order_relaxed)) {
  }
}

bool SmbServer::frozen() const {
  return frozen_until_ns_.load(std::memory_order_relaxed) > steady_now_ns();
}

void SmbServer::fail_stop() {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;  // idempotent
  // Wake every thread blocked in wait_version_at_least so it observes the
  // failure now.  Segment pointers are collected first: notifying must not
  // happen under the table lock (rank 210) because waiters re-acquire their
  // segment lock (rank 200) to evaluate the predicate.
  std::vector<std::shared_ptr<Segment>> segments;
  {
    std::shared_lock lock(table_mutex_);
    segments.reserve(by_access_key_.size());
    for (const auto& [key, segment] : by_access_key_) segments.push_back(segment);
  }
  for (const std::shared_ptr<Segment>& segment : segments) {
    {
      // Empty critical section: a waiter between its predicate check and its
      // cv sleep holds the lock, so this handshake guarantees it either saw
      // failed_ or is asleep when the notification lands.
      std::scoped_lock lock(segment->data_mutex);
    }
    segment->version_cv.notify_all();
  }
}

void SmbServer::block_while_frozen() const {
  for (;;) {
    throw_if_failed();
    const std::int64_t until = frozen_until_ns_.load(std::memory_order_relaxed);
    const std::int64_t now = steady_now_ns();
    if (now >= until) return;
    std::this_thread::sleep_for(
        std::min(std::chrono::nanoseconds(until - now), std::chrono::nanoseconds(1'000'000)));
  }
}

SmbServerStats SmbServer::stats() const {
  std::shared_lock lock(table_mutex_);
  return stats_;
}

}  // namespace shmcaffe::smb
