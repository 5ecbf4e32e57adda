// Tests for the functional Soft Memory Box server: segment lifecycle,
// data-path semantics, server-side accumulate, counters, notification, and
// concurrency hammer tests from real threads.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "common/ordered_mutex.h"
#include "smb/server.h"

namespace shmcaffe::smb {
namespace {

TEST(SmbServer, CreateAttachReleaseLifecycle) {
  SmbServer server;
  const Handle created = server.create_floats(100, 64);
  EXPECT_TRUE(created.valid());
  EXPECT_EQ(server.size(created), 64u);

  const Handle attached = server.attach_floats(100);
  EXPECT_EQ(attached, created);  // same canonical access key

  server.release(attached);
  EXPECT_NO_THROW((void)server.size(created));  // creator still holds it
  server.release(created);
  EXPECT_THROW((void)server.size(created), SmbError);
  // The key is free again after full release.
  EXPECT_NO_THROW((void)server.create_floats(100, 8));
}

TEST(SmbServer, DuplicateKeyRejected) {
  SmbServer server;
  (void)server.create_floats(1, 16);
  EXPECT_THROW((void)server.create_floats(1, 16), SmbError);
}

TEST(SmbServer, AttachUnknownKeyRejected) {
  SmbServer server;
  EXPECT_THROW((void)server.attach_floats(404), SmbError);
}

TEST(SmbServer, AttachSizeMismatchRejected) {
  SmbServer server;
  (void)server.create_floats(1, 16);
  EXPECT_THROW((void)server.attach_floats(1, 32), SmbError);
  EXPECT_NO_THROW((void)server.attach_floats(1, 16));
  EXPECT_NO_THROW((void)server.attach_floats(1));  // unspecified size ok
}

TEST(SmbServer, KindMismatchRejected) {
  SmbServer server;
  (void)server.create_floats(1, 16);
  (void)server.create_counters(2, 4);
  EXPECT_THROW((void)server.attach_counters(1), SmbError);
  EXPECT_THROW((void)server.attach_floats(2), SmbError);
}

TEST(SmbServer, CapacityEnforced) {
  SmbServerOptions options;
  options.capacity_bytes = 1024;  // 256 floats
  SmbServer server(options);
  (void)server.create_floats(1, 128);  // 512 bytes
  EXPECT_THROW((void)server.create_floats(2, 200), SmbError);
  const Handle h = server.create_floats(3, 128);  // exactly fills
  EXPECT_TRUE(h.valid());
  server.release(h);
  EXPECT_NO_THROW((void)server.create_floats(4, 128));  // space reclaimed
}

TEST(SmbServer, WriteThenReadRoundTrips) {
  SmbServer server;
  const Handle h = server.create_floats(7, 8);
  const std::vector<float> data{1, 2, 3, 4, 5, 6, 7, 8};
  server.write(h, data);
  std::vector<float> out(8, 0.0F);
  server.read(h, out);
  EXPECT_EQ(out, data);
}

TEST(SmbServer, PartialReadWriteWithOffsets) {
  SmbServer server;
  const Handle h = server.create_floats(7, 8);
  const std::vector<float> part{9, 10};
  server.write(h, part, 3);
  std::vector<float> out(3, -1.0F);
  server.read(h, out, 2);
  EXPECT_EQ(out, (std::vector<float>{0, 9, 10}));
}

TEST(SmbServer, OutOfBoundsAccessRejected) {
  SmbServer server;
  const Handle h = server.create_floats(7, 8);
  std::vector<float> buf(4);
  EXPECT_THROW(server.read(h, buf, 5), SmbError);
  EXPECT_THROW(server.write(h, buf, 6), SmbError);
  EXPECT_NO_THROW(server.read(h, buf, 4));
}

TEST(SmbServer, SegmentsZeroInitialised) {
  SmbServer server;
  const Handle h = server.create_floats(7, 16);
  std::vector<float> out(16, 1.0F);
  server.read(h, out);
  for (float v : out) EXPECT_EQ(v, 0.0F);
}

TEST(SmbServer, AccumulateAddsElementwise) {
  SmbServer server;
  const Handle global = server.create_floats(1, 4);
  const Handle delta = server.create_floats(2, 4);
  server.write(global, std::vector<float>{1, 1, 1, 1});
  server.write(delta, std::vector<float>{0.5F, -1, 2, 0});
  server.accumulate(delta, global);
  std::vector<float> out(4);
  server.read(global, out);
  EXPECT_EQ(out, (std::vector<float>{1.5F, 0, 3, 1}));
  // Source is untouched.
  server.read(delta, out);
  EXPECT_EQ(out, (std::vector<float>{0.5F, -1, 2, 0}));
}

TEST(SmbServer, AccumulateRequiresDistinctEqualSizedFloatSegments) {
  SmbServer server;
  const Handle a = server.create_floats(1, 4);
  const Handle b = server.create_floats(2, 8);
  const Handle c = server.create_counters(3, 4);
  EXPECT_THROW(server.accumulate(a, a), SmbError);
  EXPECT_THROW(server.accumulate(a, b), SmbError);
  EXPECT_THROW(server.accumulate(a, c), SmbError);
}

TEST(SmbServer, CountersStoreLoadFetchAdd) {
  SmbServer server;
  const Handle h = server.create_counters(9, 4);
  EXPECT_EQ(server.load(h, 0), 0);
  server.store(h, 1, 42);
  EXPECT_EQ(server.load(h, 1), 42);
  EXPECT_EQ(server.fetch_add(h, 1, 8), 42);
  EXPECT_EQ(server.load(h, 1), 50);
  EXPECT_THROW(server.store(h, 4, 1), SmbError);
}

TEST(SmbServer, VersionBumpsOnEveryMutation) {
  SmbServer server;
  const Handle g = server.create_floats(1, 4);
  const Handle d = server.create_floats(2, 4);
  EXPECT_EQ(server.version(g), 0u);
  server.write(g, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(server.version(g), 1u);
  server.accumulate(d, g);
  EXPECT_EQ(server.version(g), 2u);
  EXPECT_EQ(server.version(d), 0u);
}

TEST(SmbServer, WaitVersionBlocksUntilNotified) {
  SmbServer server;
  const Handle g = server.create_floats(1, 4);
  std::optional<std::uint64_t> seen;
  std::thread waiter(
      [&] { seen = server.wait_version_at_least(g, 1, std::chrono::seconds(30)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.write(g, std::vector<float>{1, 2, 3, 4});
  waiter.join();
  ASSERT_TRUE(seen.has_value());
  EXPECT_GE(*seen, 1u);
}

TEST(SmbServer, StatsTrackOperations) {
  SmbServer server;
  const Handle g = server.create_floats(1, 4);
  const Handle d = server.create_floats(2, 4);
  (void)server.attach_floats(1);
  std::vector<float> buf(4);
  server.write(d, buf);
  server.read(g, buf);
  server.accumulate(d, g);
  const SmbServerStats stats = server.stats();
  EXPECT_EQ(stats.creates, 2u);
  EXPECT_EQ(stats.attaches, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.accumulates, 1u);
  EXPECT_EQ(stats.bytes_written, 16);
  EXPECT_EQ(stats.bytes_read, 16);
  EXPECT_EQ(stats.bytes_in_use, 32);
}

// --- concurrency hammers (real threads) ---

TEST(SmbServerConcurrency, ParallelAccumulatesAreLinearizable) {
  // W threads each accumulate their own delta segment K times into the
  // global buffer.  The final value must be the exact sum (accumulate holds
  // the destination exclusively).
  SmbServer server;
  constexpr int kWorkers = 8;
  constexpr int kRounds = 50;
  constexpr std::size_t kCount = 257;
  const Handle global = server.create_floats(0, kCount);

  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&server, w] {
      const Handle mine = server.create_floats(1000 + static_cast<ShmKey>(w), kCount);
      const Handle g = server.attach_floats(0);
      std::vector<float> delta(kCount, static_cast<float>(w + 1));
      for (int round = 0; round < kRounds; ++round) {
        server.write(mine, delta);
        server.accumulate(mine, g);
      }
      server.release(g);
      server.release(mine);
    });
  }
  for (auto& t : threads) t.join();

  // sum over workers of (w+1) * kRounds
  const float expected = kRounds * (kWorkers * (kWorkers + 1) / 2);
  std::vector<float> out(kCount);
  server.read(global, out);
  for (float v : out) EXPECT_EQ(v, expected);
}

TEST(SmbServerConcurrency, ConcurrentCountersAreExact) {
  SmbServer server;
  const Handle h = server.create_counters(0, 1);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, h] {
      for (int i = 0; i < kIncrements; ++i) server.fetch_add(h, 0, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.load(h, 0), kThreads * kIncrements);
}

TEST(SmbServerConcurrency, ReadersSeeConsistentSnapshotsUnderWrites) {
  // A writer alternates between two full-segment patterns; readers must
  // never observe a torn mix (read/write hold the segment lock).
  SmbServer server;
  constexpr std::size_t kCount = 1024;
  const Handle h = server.create_floats(0, kCount);
  server.write(h, std::vector<float>(kCount, 0.0F));
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    const std::vector<float> a(kCount, 1.0F);
    const std::vector<float> b(kCount, 2.0F);
    for (int i = 0; i < 500; ++i) server.write(h, i % 2 == 0 ? a : b);
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::vector<float> buf(kCount);
      while (!stop) {
        server.read(h, buf);
        for (std::size_t i = 1; i < kCount; ++i) {
          if (buf[i] != buf[0]) {
            ++torn;
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}


// Lock-order guard: the suite above drives the instrumented mutexes hard
// (segment + table locks from many threads); any rank inversion or acquisition-graph cycle they produced
// is a latent deadlock.  Runs last in this binary by declaration order.
TEST(LockOrder, CleanUnderSmbConcurrency) {
  EXPECT_TRUE(shmcaffe::common::LockOrderRegistry::instance().violations().empty())
      << shmcaffe::common::LockOrderRegistry::instance().violations().size()
      << " lock-order violation(s); see stderr for details";
}

}  // namespace
}  // namespace shmcaffe::smb
