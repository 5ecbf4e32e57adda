// Tests for the zero-copy epoch-pinned SMB read path: pinned views vs copy
// reads, copy-on-write around a pin, pin accounting (bytes_pinned,
// balance-at-release), verify-at-pin-time integrity, and the pinned path
// through ReplicatedSmb, ShardedBuffer, and the trainer's exchange unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/exchange.h"
#include "core/seasgd_math.h"
#include "core/sharded_buffer.h"
#include "recovery/replicated_smb.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using smb::Handle;
using smb::PinnedFloats;
using smb::SmbServer;
using smb::SmbServerOptions;

std::vector<float> iota_floats(std::size_t n, float start = 0.0F) {
  std::vector<float> values(n);
  std::iota(values.begin(), values.end(), start);
  return values;
}

// --- pinned vs copy semantics ----------------------------------------------

TEST(SmbPinnedRead, ViewIsBitwiseIdenticalToCopyRead) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 1000);
  const std::vector<float> data = iota_floats(1000, 0.5F);
  server.write(handle, data);

  std::vector<float> copied(1000);
  server.read(handle, copied);

  const PinnedFloats view = server.read_pinned(handle, 1000);
  ASSERT_EQ(view.size(), 1000U);
  EXPECT_EQ(std::memcmp(view.data(), copied.data(), 1000 * sizeof(float)), 0);

  // Subrange pin: same floats as the copy read of that range.
  const PinnedFloats window = server.read_pinned(handle, 100, 450);
  ASSERT_EQ(window.size(), 100U);
  EXPECT_EQ(std::memcmp(window.data(), copied.data() + 450, 100 * sizeof(float)), 0);
}

TEST(SmbPinnedRead, StatsCountPinnedBytesSeparatelyFromCopied) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 256);
  server.write(handle, iota_floats(256));

  const auto before = server.stats();
  {
    const PinnedFloats view = server.read_pinned(handle, 256);
    const PinnedFloats window = server.read_pinned(handle, 64, 10);
    (void)view;
    (void)window;
  }
  const auto after = server.stats();
  EXPECT_EQ(after.pinned_reads, before.pinned_reads + 2);
  EXPECT_EQ(after.bytes_pinned,
            before.bytes_pinned + static_cast<std::int64_t>((256 + 64) * sizeof(float)));
  // No bytes moved: the copy-read counter must not budge.
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  EXPECT_EQ(after.reads, before.reads);
}

// --- copy-on-write ----------------------------------------------------------

TEST(SmbPinnedRead, CopyOnWriteKeepsViewOnRetiredEpoch) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 128);
  const std::vector<float> old_data = iota_floats(128, 1.0F);
  server.write(handle, old_data);

  PinnedFloats view = server.read_pinned(handle, 128);
  const std::vector<float> new_data(128, -9.0F);
  server.write(handle, new_data);  // must not stall, must not move the view

  // The pinned view still reads the epoch it pinned...
  EXPECT_EQ(std::memcmp(view.data(), old_data.data(), 128 * sizeof(float)), 0);
  // ...while fresh reads see the new contents.
  std::vector<float> now(128);
  server.read(handle, now);
  EXPECT_EQ(std::memcmp(now.data(), new_data.data(), 128 * sizeof(float)), 0);
  EXPECT_EQ(server.stats().cow_clones, 1U);

  // Once the pin is gone, writers mutate in place: no further clones.
  view.release();
  server.write(handle, old_data);
  EXPECT_EQ(server.stats().cow_clones, 1U);
}

// --- pin accounting ----------------------------------------------------------

TEST(SmbPinnedRead, FinalReleaseWithOutstandingPinIsRefused) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 64);
  server.write(handle, iota_floats(64));

  PinnedFloats view = server.read_pinned(handle, 64);
  // The final release would free storage a live view still aliases: refused,
  // and the attachment stays usable.
  EXPECT_THROW(server.release(handle), smb::SmbError);
  EXPECT_NO_THROW((void)server.size(handle));

  view.release();
  EXPECT_NO_THROW(server.release(handle));
  EXPECT_THROW((void)server.size(handle), smb::SmbError);
}

TEST(SmbPinnedRead, SelfMoveAssignmentKeepsPinLive) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 64);
  const std::vector<float> data = iota_floats(64);
  server.write(handle, data);

  PinnedFloats view = server.read_pinned(handle, 64);
  // Through an alias so the self-move survives -Wself-move; a naive move
  // assignment would release() first and hand back a dead span.
  PinnedFloats* alias = &view;
  *alias = std::move(view);

  // The view still aliases the pinned epoch...
  ASSERT_EQ(view.size(), 64U);
  EXPECT_EQ(std::memcmp(view.data(), data.data(), 64 * sizeof(float)), 0);
  // ...and exactly one pin is still outstanding: the final release is
  // refused now and accepted after the (single) unpin.
  EXPECT_THROW(server.release(handle), smb::SmbError);
  view.release();
  EXPECT_NO_THROW(server.release(handle));
}

TEST(SmbPinnedRead, ReleaseIsIdempotentAndMoveSafe) {
  SmbServer server;
  const Handle handle = server.create_floats(7, 64);
  server.write(handle, iota_floats(64));

  PinnedFloats view = server.read_pinned(handle, 64);
  PinnedFloats moved = std::move(view);
  view.release();  // moved-from: must be a no-op, not a double unpin
  moved.release();
  moved.release();  // idempotent
  EXPECT_NO_THROW(server.release(handle));
}

// --- integrity ---------------------------------------------------------------

TEST(SmbPinnedRead, ChecksumsVerifiedOnceAtPinTime) {
  SmbServerOptions options;
  options.integrity.verify_on_read = true;
  options.integrity.chunk_floats = 64;
  SmbServer server(options);
  const Handle handle = server.create_floats(7, 256);
  server.write(handle, iota_floats(256));

  // Clean segment: pin succeeds and the view matches a raw read.
  {
    const PinnedFloats view = server.read_pinned(handle, 256);
    std::vector<float> raw(256);
    server.read_raw(handle, raw);
    EXPECT_EQ(std::memcmp(view.data(), raw.data(), 256 * sizeof(float)), 0);
  }

  constexpr std::uint64_t kMarker = 0x51;
  ASSERT_GT(server.corrupt_floats(7, kMarker, 2), 0U);
  EXPECT_THROW((void)server.read_pinned(handle, 256), smb::SmbCorruption);
  const std::vector<std::uint64_t> markers = server.detected_markers();
  EXPECT_NE(std::find(markers.begin(), markers.end(), kMarker), markers.end());
}

TEST(SmbPinnedRead, AccumulateReadsItsSourceThroughAnInternalPin) {
  // accumulate() reads its source in place through a pin of the live epoch.
  // That pin is no client read: it takes no pinned-read ordinal, so a flip
  // armed on the first pinned read waits for the first read_pinned, and it
  // moves no read statistics.  The source is still verified once, so an
  // accumulate verifies as many chunks as a copying one would.
  SmbServerOptions options;
  options.integrity.verify_on_read = true;
  options.integrity.chunk_floats = 64;
  SmbServer server(options);
  const Handle src = server.create_floats(1, 256);
  const Handle dst = server.create_floats(2, 256);
  const std::vector<float> delta = iota_floats(256, 0.5F);
  const std::vector<float> base = iota_floats(256, -3.0F);
  server.write(src, delta);
  server.write(dst, base);
  constexpr std::uint64_t kMarker = 0x52;
  server.arm_pinned_corruption(/*ordinal=*/1, kMarker, /*bit_flips=*/2);

  const smb::SmbServerStats before = server.stats();
  constexpr int kAccumulates = 3;
  for (int i = 0; i < kAccumulates; ++i) server.accumulate(src, dst);
  const smb::SmbServerStats after = server.stats();
  EXPECT_TRUE(server.pinned_corruption_markers().empty());
  EXPECT_EQ(after.accumulates - before.accumulates, static_cast<std::uint64_t>(kAccumulates));
  EXPECT_EQ(after.pinned_reads, before.pinned_reads);
  EXPECT_EQ(after.bytes_pinned, before.bytes_pinned);
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  EXPECT_EQ(after.cow_clones, before.cow_clones);
  // Source and destination, 4 chunks each, once per accumulate.
  EXPECT_EQ(after.chunks_verified - before.chunks_verified,
            static_cast<std::uint64_t>(kAccumulates * 2 * 4));
  std::vector<float> sum(256);
  server.read(dst, sum);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    ASSERT_EQ(sum[i], ((base[i] + delta[i]) + delta[i]) + delta[i]) << "element " << i;
  }

  // The first client pin is ordinal 1: the armed flip fires there.
  {
    const PinnedFloats view = server.read_pinned(src, 256);
    EXPECT_EQ(server.pinned_corruption_markers(), std::vector<std::uint64_t>{kMarker});
  }
  // Every pin, the accumulates' included, was released.
  EXPECT_NO_THROW(server.release(src));
  EXPECT_NO_THROW(server.release(dst));
}

// --- replicated ensemble ------------------------------------------------------

TEST(SmbPinnedRead, ReplicatedViewSurvivesPrimaryFailStop) {
  SmbServer a;
  SmbServer b;
  recovery::ReplicatedSmb ensemble({&a, &b});
  const Handle handle = ensemble.create_floats(7, 200);
  const std::vector<float> data = iota_floats(200, 3.0F);
  ensemble.write(handle, data);

  // Pin against the active replica, then kill it.  The view aliases storage
  // kept alive by its epoch reference, so it stays readable; the next pin
  // fails over to the survivor and serves the same bits.
  const PinnedFloats before = ensemble.read_pinned(handle, 200);
  a.fail_stop();
  EXPECT_EQ(std::memcmp(before.data(), data.data(), 200 * sizeof(float)), 0);

  const PinnedFloats after = ensemble.read_pinned(handle, 200);
  ASSERT_EQ(after.size(), 200U);
  EXPECT_EQ(std::memcmp(after.data(), data.data(), 200 * sizeof(float)), 0);
}

// --- sharded buffer -----------------------------------------------------------

TEST(SmbPinnedRead, ShardedViewsCoverTheLogicalBuffer) {
  SmbServer s0;
  SmbServer s1;
  SmbServer s2;
  std::vector<smb::SmbServer*> servers = {&s0, &s1, &s2};
  core::ShardedBuffer buffer =
      core::ShardedBuffer::create(std::span<smb::SmbServer* const>(servers), 7, 1000);
  const std::vector<float> data = iota_floats(1000, 0.25F);
  buffer.write(data);

  for (const std::size_t start_shard : {0U, 1U, 2U}) {
    std::vector<core::ShardedBuffer::PinnedShard> views = buffer.read_pinned(start_shard);
    ASSERT_EQ(views.size(), 3U);
    std::size_t expected_offset = 0;
    for (const core::ShardedBuffer::PinnedShard& shard : views) {
      // Ascending, gap-free offsets regardless of fan-out rotation.
      ASSERT_EQ(shard.offset, expected_offset);
      EXPECT_EQ(std::memcmp(shard.view.data(), data.data() + shard.offset,
                            shard.view.size() * sizeof(float)),
                0)
          << "start_shard=" << start_shard << " offset=" << shard.offset;
      expected_offset += shard.view.size();
    }
    EXPECT_EQ(expected_offset, 1000U);
  }
}

// --- the trainer's exchange ------------------------------------------------

TEST(SmbPinnedRead, TrainerZeroCopyPathIsBitwiseIdenticalToCopyPath) {
  // The trainer's Fig. 6 exchange unit, driven on one thread: exchange()
  // runs T1/T2 against pinned per-shard views of W_g, in place on the
  // parameters it is handed, and hands the increment over; then serve()
  // after stop() runs the flush (T.A1-T.A4) and returns.  The reference is
  // a staged read, a copy of the whole buffer followed by the scalar
  // elastic_exchange: same floats, same rounding, for any start shard and
  // pool width.  With verify_on_read the exchange runs eq. (5), re-pins,
  // then eq. (6): the same bits again.  The split is uneven (33335, 33334,
  // 33334 floats) and every shard spans more than one pool chunk.  T1/T2's
  // pins must be gone by the flush: an accumulate into a still-pinned W_g
  // epoch clones it, so no server may count a COW clone.  The accumulate
  // reads its source through an internal pin, which is no pinned read.
  constexpr std::size_t kTotal = 100'003;
  static_assert(kTotal / 3 > core::kSeasgdGrain);
  common::Rng rng(0x7e57);
  std::vector<float> weights(kTotal);
  std::vector<float> start_local(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    weights[i] = static_cast<float>(rng.normal());
    start_local[i] = weights[i] + static_cast<float>(0.01 * rng.normal());
  }
  const float alpha = 0.2F;

  for (const bool verify : {false, true}) {
    SmbServerOptions options;
    options.integrity.verify_on_read = verify;
    SmbServer s0(options);
    SmbServer s1(options);
    SmbServer s2(options);
    std::vector<smb::SmbServer*> servers = {&s0, &s1, &s2};
    core::ShardedBuffer global =
        core::ShardedBuffer::create(std::span<smb::SmbServer* const>(servers), 7, kTotal);
    core::ShardedBuffer increments =
        core::ShardedBuffer::create(std::span<smb::SmbServer* const>(servers), 8, kTotal);
    global.write(weights);
    const auto total = [&](auto stat) {
      return stat(s0.stats()) + stat(s1.stats()) + stat(s2.stats());
    };
    const auto cow_clones = [](const smb::SmbServerStats& st) { return st.cow_clones; };
    const auto pinned_reads = [](const smb::SmbServerStats& st) { return st.pinned_reads; };

    for (const int threads : {1, 2, 4}) {
      common::parallel::set_thread_count(threads);
      for (const std::size_t start_shard : {0U, 1U, 2U}) {
        std::vector<float> before(kTotal);
        global.read(before, start_shard);
        std::vector<float> want_local = start_local;
        std::vector<float> want_delta(kTotal);
        core::elastic_exchange(want_local, before, alpha, want_delta);

        core::Exchange exchange(
            global, increments, [start_shard] { return start_shard; }, alpha, verify);
        std::vector<float> params = start_local;
        exchange.exchange(params);
        const std::uint64_t pinned_before_flush = total(pinned_reads);
        exchange.stop();
        exchange.serve();

        const std::string where = std::string(verify ? "verify_on_read, " : "") +
                                  "start_shard " + std::to_string(start_shard) + " at width " +
                                  std::to_string(threads);
        EXPECT_EQ(total(pinned_reads), pinned_before_flush) << "the flush pinned, " << where;
        EXPECT_EQ(std::memcmp(params.data(), want_local.data(), kTotal * sizeof(float)), 0)
            << "params, " << where;
        std::vector<float> flushed(kTotal);
        increments.read(flushed);
        EXPECT_EQ(std::memcmp(flushed.data(), want_delta.data(), kTotal * sizeof(float)), 0)
            << "delta segment, " << where;
        std::vector<float> want_global(kTotal);
        for (std::size_t i = 0; i < kTotal; ++i) want_global[i] = before[i] + want_delta[i];
        std::vector<float> after(kTotal);
        global.read(after);
        EXPECT_EQ(std::memcmp(after.data(), want_global.data(), kTotal * sizeof(float)), 0)
            << "W_g after the flush, " << where;
        EXPECT_EQ(total(cow_clones), 0U) << where;
      }
    }
    global.release();
    increments.release();
  }
  common::parallel::shutdown();
}

}  // namespace
}  // namespace shmcaffe
