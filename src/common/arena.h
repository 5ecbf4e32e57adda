// Central arena/registry allocator for hot-path float buffers.
//
// The kernels that dominate an iteration — im2col scratch in the conv
// layers, the trainer's exchange staging buffers, SMB segment storage —
// all need large flat float arrays whose sizes repeat every iteration.
// Growing them through ad-hoc `std::vector<float>` means a round trip to
// the general-purpose heap (plus zero-initialisation) on first touch and
// no visibility into who holds how much.  The arena replaces that with a
// process-wide registry of recycled slabs (the LBANN memory-registry
// idea, ROADMAP item 5):
//
//   * slabs are 64-byte aligned (cache line / AVX-512 friendly) and
//     bucketed by power-of-two size class, so a released slab is reused
//     by the next same-class acquire instead of returning to the OS;
//   * every acquisition carries an *owner label* ("dl.conv.col",
//     "smb.segment", ...) and the registry keeps per-owner stats —
//     bytes live, peak, bytes reused, slab reuses vs fresh allocations —
//     so the memory data plane is observable (DESIGN.md §4e);
//   * `arena::Buffer` is the RAII front end: a move-only sized view over
//     one slab with vector-ish `ensure`/`assign` that never shrink the
//     slab, so steady-state iterations allocate nothing.
//
// Thread safety: the registry mutex is rank 450 (common.arena.registry) —
// above the SMB segment (200) and table (210) locks because segment
// storage is recycled while they are held, below the parallel pool (500)
// because kernels acquire scratch before submitting chunks, never inside
// them.  `Buffer` itself is not synchronised (one owner at a time, like
// the vectors it replaces).
//
// The global arena is a leaked singleton: buffers with thread-local or
// static lifetime may release during shutdown, so the registry must never
// be destroyed first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ordered_mutex.h"

namespace shmcaffe::common::arena {

/// Per-owner accounting, all monotone except bytes_live.
struct OwnerStats {
  std::uint64_t bytes_live = 0;    ///< bytes currently acquired
  std::uint64_t bytes_peak = 0;    ///< high-water mark of bytes_live
  std::uint64_t bytes_reused = 0;  ///< bytes served from the free list
  std::uint64_t slab_reuses = 0;   ///< acquires served from the free list
  std::uint64_t slab_allocs = 0;   ///< acquires that hit the OS allocator
};

struct Stats {
  OwnerStats total;
  /// Ordered by label for stable logging/tests.
  std::map<std::string, OwnerStats> by_owner;
};

class Arena {
 public:
  /// One recycled allocation: `capacity` floats, 64-byte aligned.
  struct Slab {
    float* data = nullptr;
    std::size_t capacity = 0;  ///< floats, always a full size class
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena();

  /// A slab of at least `count` floats charged to `owner`.  Contents are
  /// unspecified (recycled slabs keep their previous bytes).
  Slab acquire(const char* owner, std::size_t count);
  /// Returns the slab to the free list and credits `owner`.  The slab must
  /// have come from this arena's acquire (same capacity class).
  void release(const char* owner, Slab slab) noexcept;

  [[nodiscard]] Stats stats() const;

  /// Size class (in floats) an acquire of `count` floats maps to: the next
  /// power of two, at least kMinSlabFloats.
  [[nodiscard]] static std::size_t slab_class(std::size_t count);

  static constexpr std::size_t kMinSlabFloats = 64;  ///< 256 B
  static constexpr std::size_t kAlignment = 64;      ///< bytes

 private:
  /// Rank 450 (common.arena.registry): above the SMB segment/table locks,
  /// below the parallel pool — see the table in common/ordered_mutex.h.
  mutable OrderedMutex mutex_{"common.arena.registry", lockrank::kArena};
  /// capacity class (floats) -> idle slabs of exactly that class.
  std::unordered_map<std::size_t, std::vector<float*>> free_lists_
      SHMCAFFE_GUARDED_BY(mutex_);
  std::map<std::string, OwnerStats> by_owner_ SHMCAFFE_GUARDED_BY(mutex_);
  OwnerStats total_ SHMCAFFE_GUARDED_BY(mutex_);
};

/// The process-wide arena every Buffer uses unless told otherwise.
[[nodiscard]] Arena& global_arena();

/// Move-only sized float buffer backed by one arena slab.  Replaces
/// `std::vector<float>` in hot paths: `ensure` never shrinks the slab and
/// never zero-fills, so repeating the same sizes across iterations costs
/// nothing after the first.
class Buffer {
 public:
  Buffer() = default;
  /// `owner` must outlive the buffer (string literals in practice).
  explicit Buffer(const char* owner, Arena* arena = &global_arena())
      : arena_(arena), owner_(owner) {}
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept { *this = static_cast<Buffer&&>(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      reset();
      arena_ = other.arena_;
      owner_ = other.owner_;
      slab_ = other.slab_;
      size_ = other.size_;
      other.slab_ = {};
      other.size_ = 0;
    }
    return *this;
  }
  ~Buffer() { reset(); }

  /// Sets the size to `count`, growing the slab if needed.  Existing
  /// contents up to min(old size, count) are preserved; any new tail is
  /// unspecified (use assign() when the whole buffer must be a value).
  void ensure(std::size_t count) {
    if (count > slab_.capacity) grow(count);
    size_ = count;
  }

  /// ensure(count) then fill with `value`.
  void assign(std::size_t count, float value) {
    if (count > slab_.capacity) grow_discard(count);
    size_ = count;
    for (std::size_t i = 0; i < count; ++i) slab_.data[i] = value;
  }

  [[nodiscard]] float* data() { return slab_.data; }
  [[nodiscard]] const float* data() const { return slab_.data; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slab_.capacity; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] float& operator[](std::size_t i) { return slab_.data[i]; }
  [[nodiscard]] const float& operator[](std::size_t i) const { return slab_.data[i]; }
  [[nodiscard]] std::span<float> span() { return {slab_.data, size_}; }
  [[nodiscard]] std::span<const float> span() const { return {slab_.data, size_}; }

  /// Returns the slab to the arena (size and capacity drop to zero).
  void reset() noexcept {
    if (slab_.data != nullptr) arena_->release(owner_, slab_);
    slab_ = {};
    size_ = 0;
  }

  [[nodiscard]] const char* owner() const { return owner_; }

 private:
  void grow(std::size_t count);
  /// Grow without preserving contents (assign overwrites everything).
  void grow_discard(std::size_t count);

  Arena* arena_ = &global_arena();
  const char* owner_ = "unlabeled";
  Arena::Slab slab_;
  std::size_t size_ = 0;
};

}  // namespace shmcaffe::common::arena
