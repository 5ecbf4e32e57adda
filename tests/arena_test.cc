// Tests for the central arena allocator (common/arena.h): size classing,
// slab reuse across iterations, per-owner accounting, and the Buffer RAII
// front end that replaces std::vector<float> in the hot paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "common/arena.h"

namespace shmcaffe::common::arena {
namespace {

TEST(ArenaSlabClass, RoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(Arena::slab_class(0), Arena::kMinSlabFloats);
  EXPECT_EQ(Arena::slab_class(1), Arena::kMinSlabFloats);
  EXPECT_EQ(Arena::slab_class(64), 64U);
  EXPECT_EQ(Arena::slab_class(65), 128U);
  EXPECT_EQ(Arena::slab_class(100), 128U);
  EXPECT_EQ(Arena::slab_class(128), 128U);
  EXPECT_EQ(Arena::slab_class(129), 256U);
  EXPECT_EQ(Arena::slab_class(4096), 4096U);
  EXPECT_EQ(Arena::slab_class(4097), 8192U);
}

TEST(Arena, AcquireIsAlignedAndAccounted) {
  Arena arena;
  const Arena::Slab slab = arena.acquire("test.owner", 100);
  ASSERT_NE(slab.data, nullptr);
  EXPECT_EQ(slab.capacity, 128U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab.data) % Arena::kAlignment, 0U);

  const Stats stats = arena.stats();
  ASSERT_EQ(stats.by_owner.count("test.owner"), 1U);
  const OwnerStats& owner = stats.by_owner.at("test.owner");
  EXPECT_EQ(owner.bytes_live, 128U * sizeof(float));
  EXPECT_EQ(owner.bytes_peak, 128U * sizeof(float));
  EXPECT_EQ(owner.slab_allocs, 1U);
  EXPECT_EQ(owner.slab_reuses, 0U);
  EXPECT_EQ(stats.total.bytes_live, owner.bytes_live);

  arena.release("test.owner", slab);
  const Stats after = arena.stats();
  EXPECT_EQ(after.by_owner.at("test.owner").bytes_live, 0U);
  // Peak is a high-water mark; release does not lower it.
  EXPECT_EQ(after.by_owner.at("test.owner").bytes_peak, 128U * sizeof(float));
}

TEST(Arena, ReleasedSlabIsReusedBySameClassAcquire) {
  Arena arena;
  Arena::Slab first = arena.acquire("reuse", 200);  // class 256
  float* const recycled = first.data;
  arena.release("reuse", first);

  // Same class from a different count: must come off the free list.
  const Arena::Slab second = arena.acquire("reuse", 129);
  EXPECT_EQ(second.data, recycled);
  EXPECT_EQ(second.capacity, 256U);

  const OwnerStats owner = arena.stats().by_owner.at("reuse");
  EXPECT_EQ(owner.slab_allocs, 1U);
  EXPECT_EQ(owner.slab_reuses, 1U);
  EXPECT_EQ(owner.bytes_reused, 256U * sizeof(float));
  arena.release("reuse", second);
}

TEST(Arena, OwnersAreTrackedSeparatelyAndTotalled) {
  Arena arena;
  const Arena::Slab a = arena.acquire("owner.a", 64);
  const Arena::Slab b = arena.acquire("owner.b", 1024);
  const Stats stats = arena.stats();
  EXPECT_EQ(stats.by_owner.at("owner.a").bytes_live, 64U * sizeof(float));
  EXPECT_EQ(stats.by_owner.at("owner.b").bytes_live, 1024U * sizeof(float));
  EXPECT_EQ(stats.total.bytes_live, (64U + 1024U) * sizeof(float));
  EXPECT_EQ(stats.total.slab_allocs, 2U);
  arena.release("owner.a", a);
  arena.release("owner.b", b);
  EXPECT_EQ(arena.stats().total.bytes_live, 0U);
}

TEST(ArenaBuffer, EnsureGrowsAndPreservesPrefix) {
  Arena arena;
  Buffer buffer("buf.prefix", &arena);
  buffer.ensure(10);
  for (std::size_t i = 0; i < 10; ++i) buffer[i] = static_cast<float>(i);

  buffer.ensure(500);
  EXPECT_EQ(buffer.size(), 500U);
  EXPECT_GE(buffer.capacity(), 512U);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(buffer[i], static_cast<float>(i)) << "prefix lost at " << i;
  }

  // Shrinking the size never shrinks the slab.
  const std::size_t cap = buffer.capacity();
  buffer.ensure(5);
  EXPECT_EQ(buffer.size(), 5U);
  EXPECT_EQ(buffer.capacity(), cap);
}

TEST(ArenaBuffer, AssignFillsEveryElement) {
  Arena arena;
  Buffer buffer("buf.assign", &arena);
  buffer.assign(130, 3.5F);
  ASSERT_EQ(buffer.size(), 130U);
  for (const float v : buffer.span()) EXPECT_EQ(v, 3.5F);
  buffer.assign(7, 0.0F);
  for (const float v : buffer.span()) EXPECT_EQ(v, 0.0F);
}

TEST(ArenaBuffer, SteadyStateReusesWithoutFreshAllocations) {
  Arena arena;
  Buffer buffer("buf.steady", &arena);
  for (int iteration = 0; iteration < 10; ++iteration) {
    buffer.assign(1000, static_cast<float>(iteration));
  }
  // One slab for the whole loop: repeating sizes cost nothing after warmup.
  const OwnerStats owner = arena.stats().by_owner.at("buf.steady");
  EXPECT_EQ(owner.slab_allocs, 1U);
  EXPECT_EQ(owner.bytes_live, Arena::slab_class(1000) * sizeof(float));
}

TEST(ArenaBuffer, MoveTransfersSlabWithoutDoubleRelease) {
  Arena arena;
  {
    Buffer source("buf.move", &arena);
    source.assign(100, 1.0F);
    const float* const data = source.data();

    Buffer moved = std::move(source);
    EXPECT_EQ(moved.data(), data);
    EXPECT_EQ(moved.size(), 100U);
    EXPECT_EQ(source.size(), 0U);      // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(source.data(), nullptr); // NOLINT(bugprone-use-after-move)

    Buffer assigned("buf.move", &arena);
    assigned.assign(30, 2.0F);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.data(), data);
    EXPECT_EQ(assigned.size(), 100U);
  }
  // Every slab returned exactly once: nothing live, nothing leaked.
  EXPECT_EQ(arena.stats().total.bytes_live, 0U);
}

TEST(ArenaBuffer, ResetReturnsSlabForReuse) {
  Arena arena;
  Buffer buffer("buf.reset", &arena);
  buffer.ensure(300);
  buffer.reset();
  EXPECT_EQ(buffer.size(), 0U);
  EXPECT_EQ(buffer.capacity(), 0U);
  EXPECT_EQ(arena.stats().by_owner.at("buf.reset").bytes_live, 0U);

  buffer.ensure(300);
  EXPECT_EQ(arena.stats().by_owner.at("buf.reset").slab_reuses, 1U);
}

TEST(ArenaGlobal, DefaultBufferChargesTheProcessArena) {
  const std::uint64_t allocs_before = global_arena().stats().total.slab_allocs;
  {
    Buffer buffer("test.global_arena");
    buffer.assign(4096, 0.0F);
    const Stats stats = global_arena().stats();
    ASSERT_EQ(stats.by_owner.count("test.global_arena"), 1U);
    EXPECT_EQ(stats.by_owner.at("test.global_arena").bytes_live,
              4096U * sizeof(float));
  }
  EXPECT_EQ(global_arena().stats().by_owner.at("test.global_arena").bytes_live, 0U);
  EXPECT_GE(global_arena().stats().total.slab_allocs, allocs_before + 1);
}

}  // namespace
}  // namespace shmcaffe::common::arena
