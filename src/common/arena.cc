#include "common/arena.h"

#include <bit>
#include <mutex>
#include <new>

namespace shmcaffe::common::arena {

namespace {

float* os_alloc(std::size_t floats) {
  return static_cast<float*>(::operator new(
      floats * sizeof(float), std::align_val_t{Arena::kAlignment}));
}

void os_free(float* p) noexcept {
  ::operator delete(p, std::align_val_t{Arena::kAlignment});
}

}  // namespace

std::size_t Arena::slab_class(std::size_t count) {
  if (count <= kMinSlabFloats) return kMinSlabFloats;
  return std::bit_ceil(count);
}

Arena::~Arena() {
  std::scoped_lock lock(mutex_);
  for (auto& [cls, slabs] : free_lists_) {
    for (float* p : slabs) os_free(p);
  }
  free_lists_.clear();
}

Arena::Slab Arena::acquire(const char* owner, std::size_t count) {
  const std::size_t cls = slab_class(count);
  const std::uint64_t bytes = cls * sizeof(float);
  float* data = nullptr;
  bool reused = false;
  {
    std::scoped_lock lock(mutex_);
    auto it = free_lists_.find(cls);
    if (it != free_lists_.end() && !it->second.empty()) {
      data = it->second.back();
      it->second.pop_back();
      reused = true;
    }
    OwnerStats& os = by_owner_[owner];
    for (OwnerStats* s : {&os, &total_}) {
      s->bytes_live += bytes;
      if (s->bytes_live > s->bytes_peak) s->bytes_peak = s->bytes_live;
      if (reused) {
        s->bytes_reused += bytes;
        ++s->slab_reuses;
      } else {
        ++s->slab_allocs;
      }
    }
  }
  // The OS allocation happens outside the registry lock: it can take page
  // faults and must never extend a critical section other threads recycle
  // through.  Stats already counted it as an alloc.
  if (data == nullptr) data = os_alloc(cls);
  return Slab{data, cls};
}

void Arena::release(const char* owner, Slab slab) noexcept {
  if (slab.data == nullptr) return;
  const std::uint64_t bytes = slab.capacity * sizeof(float);
  std::scoped_lock lock(mutex_);
  free_lists_[slab.capacity].push_back(slab.data);
  OwnerStats& os = by_owner_[owner];
  for (OwnerStats* s : {&os, &total_}) {
    s->bytes_live = s->bytes_live >= bytes ? s->bytes_live - bytes : 0;
  }
}

Stats Arena::stats() const {
  std::scoped_lock lock(mutex_);
  Stats out;
  out.total = total_;
  out.by_owner = by_owner_;
  return out;
}

Arena& global_arena() {
  // Leaked: thread-local and static-lifetime buffers release during
  // shutdown, after function-local statics would have been destroyed.
  static Arena* const arena = new Arena;
  return *arena;
}

void Buffer::grow(std::size_t count) {
  Arena::Slab bigger = arena_->acquire(owner_, count);
  if (slab_.data != nullptr) {
    if (size_ > 0) std::memcpy(bigger.data, slab_.data, size_ * sizeof(float));
    arena_->release(owner_, slab_);
  }
  slab_ = bigger;
}

void Buffer::grow_discard(std::size_t count) {
  if (slab_.data != nullptr) arena_->release(owner_, slab_);
  slab_ = {};
  slab_ = arena_->acquire(owner_, count);
}

}  // namespace shmcaffe::common::arena
