// Tests for the deterministic work pool (common/parallel.h) and its
// determinism contract across the ported hot paths: the same floats must
// come out of the conv GEMM engine, the SEASGD exchange kernels, the SMB
// accumulate, and a whole training run for every pool width — bitwise, not
// approximately.  Also covers the pool's lifecycle edges (lazy start,
// shutdown + re-entry, nested calls, exception propagation), the per-lane
// executor budget and concurrent submitters, and ends with a LockOrder guard
// over everything the suite drove.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/seasgd_math.h"
#include "core/trainer.h"
#include "dl/gradcheck.h"
#include "dl/layers.h"
#include "dl/models.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

namespace parallel = common::parallel;

/// Bitwise equality of float buffers: the determinism contract is exact,
/// so no tolerance anywhere in this file.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// --- chunking is a pure function of (range, grain) -------------------------

TEST(ChunkCount, PureInRangeAndGrain) {
  EXPECT_EQ(parallel::chunk_count(0, 4), 0U);
  EXPECT_EQ(parallel::chunk_count(1, 4), 1U);
  EXPECT_EQ(parallel::chunk_count(4, 4), 1U);
  EXPECT_EQ(parallel::chunk_count(5, 4), 2U);
  EXPECT_EQ(parallel::chunk_count(8, 4), 2U);
  EXPECT_EQ(parallel::chunk_count(9, 4), 3U);
  // Grain is clamped to >= 1 rather than dividing by zero.
  EXPECT_EQ(parallel::chunk_count(7, 0), 7U);
}

TEST(ParallelFor, ChunkBoundariesNeverDependOnThreadCount) {
  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex mutex;
    parallel::parallel_for(103, 10, [&](std::size_t begin, std::size_t end) {
      const std::scoped_lock lock(mutex);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), parallel::chunk_count(103, 10)) << "threads=" << threads;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c].first, c * 10) << "threads=" << threads;
      EXPECT_EQ(chunks[c].second, std::min<std::size_t>(c * 10 + 10, 103));
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 3, 4}) {
    parallel::set_thread_count(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallel_for(1000, 7, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool ran = false;
  parallel::parallel_for(0, 8, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// --- lifecycle -------------------------------------------------------------

TEST(Pool, ShutdownAndReentry) {
  parallel::set_thread_count(4);
  EXPECT_EQ(parallel::thread_count(), 4);
  parallel::shutdown();
  // The next use lazily restarts; thread_count() itself is such a use.
  EXPECT_GE(parallel::thread_count(), 1);
  std::atomic<int> sum{0};
  parallel::parallel_for(64, 8, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 64);
  // Repeated shutdown is harmless.
  parallel::shutdown();
  parallel::shutdown();
}

TEST(Pool, NestedCallsRunInlineWithoutDeadlock) {
  parallel::set_thread_count(4);
  std::vector<std::atomic<int>> hits(256);
  parallel::parallel_for(16, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t outer = ob; outer < oe; ++outer) {
      parallel::parallel_for(16, 4, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t inner = ib; inner < ie; ++inner) {
          hits[outer * 16 + inner].fetch_add(1);
        }
      });
    }
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Pool, FirstExceptionPropagatesAndPoolStaysUsable) {
  parallel::set_thread_count(4);
  EXPECT_THROW(
      parallel::parallel_for(100, 1,
                             [&](std::size_t begin, std::size_t) {
                               if (begin == 37) throw std::runtime_error("chunk 37");
                             }),
      std::runtime_error);
  // The pool drained the failed job completely and accepts new work.
  std::atomic<int> sum{0};
  parallel::parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 100);
}

/// Busy work, so that helpers get to join a job before its submitter alone
/// has drained it.
void spin(int iterations) {
  volatile double sink = 0.0;
  for (int i = 0; i < iterations; ++i) sink = sink + i;
}

/// Distinct threads that ran the chunks of one 64-chunk job.
std::set<std::thread::id> executors_of_one_job() {
  std::vector<std::thread::id> ran_on(64);
  parallel::parallel_for(64, 1, [&](std::size_t begin, std::size_t) {
    ran_on[begin] = std::this_thread::get_id();
    spin(20000);
  });
  return {ran_on.begin(), ran_on.end()};
}

TEST(Pool, LaneBudgetCapsExecutors) {
  parallel::set_thread_count(4);
  {
    // Four lanes on a width of four: each submission's share is itself.
    const std::array<parallel::Lane, 4> lanes;
    EXPECT_EQ(executors_of_one_job(), std::set{std::this_thread::get_id()});
  }
  {
    // Two lanes: two executors per job, the submitter and one helper at most.
    const std::array<parallel::Lane, 2> lanes;
    for (int round = 0; round < 20; ++round) EXPECT_LE(executors_of_one_job().size(), 2U);
  }
}

TEST(Pool, ConcurrentSubmittersKeepTheirOwnJobs) {
  // Four submitters with no lanes keep several jobs in flight at once: each
  // job's indices are hit exactly once, and a throwing chunk surfaces on its
  // own submitter only.
  parallel::set_thread_count(4);
  constexpr int kSubmitters = 4;
  constexpr int kCalls = 200;
  std::array<int, kSubmitters> miscounted{};
  std::array<int, kSubmitters> caught{};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([s, &miscounted, &caught] {
      const std::size_t range = 97 + static_cast<std::size_t>(s);
      for (int call = 0; call < kCalls; ++call) {
        const bool throws = s == 0 && call % 50 == 49;
        std::vector<std::atomic<int>> hits(range);
        try {
          parallel::parallel_for(range, 3, [&](std::size_t begin, std::size_t end) {
            if (throws && begin / 3 == 7) throw std::runtime_error("submitter 0");
            spin(5000);
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          });
        } catch (const std::runtime_error&) {
          ++caught[static_cast<std::size_t>(s)];
          continue;
        }
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) ++miscounted[static_cast<std::size_t>(s)];
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(caught, (std::array<int, kSubmitters>{kCalls / 50, 0, 0, 0}));
  EXPECT_EQ(miscounted, (std::array<int, kSubmitters>{}));

  std::atomic<int> sum{0};
  parallel::parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(sum.load(), 100);
}

// --- SEASGD kernels: parallel == scalar, bitwise ---------------------------

TEST(SeasgdParallel, MatchesScalarKernelsBitwiseAtEveryWidth) {
  common::Rng rng(3);
  const std::size_t n = 100000;  // several chunks at the SEASGD grain
  std::vector<float> local0(n);
  std::vector<float> global(n);
  for (float& v : local0) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : global) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> local_ref = local0;
  std::vector<float> delta_ref(n);
  core::elastic_exchange(local_ref, global, 0.3F, delta_ref);

  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);

    std::vector<float> fused_local = local0;
    std::vector<float> fused_delta(n);
    core::elastic_exchange_parallel(fused_local, global, 0.3F, fused_delta);
    EXPECT_TRUE(same_bits(fused_local, local_ref)) << "threads=" << threads;
    EXPECT_TRUE(same_bits(fused_delta, delta_ref)) << "threads=" << threads;
  }
}

// --- SMB accumulate --------------------------------------------------------

TEST(SmbAccumulate, ParallelAddIsBitwiseWidthInvariant) {
  common::Rng rng(5);
  const std::size_t n = 70000;
  std::vector<float> base(n);
  std::vector<float> delta(n);
  for (float& v : base) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : delta) v = static_cast<float>(rng.uniform(-0.1, 0.1));

  std::vector<float> expected;
  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);
    smb::SmbServer server;
    const smb::Handle src = server.create_floats(1, n);
    const smb::Handle dst = server.create_floats(2, n);
    server.write(src, delta);
    server.write(dst, base);
    server.accumulate(src, dst);
    server.accumulate(src, dst);
    std::vector<float> out(n);
    server.read(dst, out);
    if (expected.empty()) {
      expected = out;
      // Sanity against the definition: base + 2 * delta, summed in order.
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], base[i] + delta[i] + delta[i]);
      }
    } else {
      EXPECT_TRUE(same_bits(out, expected)) << "threads=" << threads;
    }
  }
}

TEST(SmbAccumulate, ConcurrentClientsStaySane) {
  // Several client threads accumulate distinct sources into one destination
  // while the pool is active — the TSan target for the lock-split add path.
  parallel::set_thread_count(4);
  const std::size_t n = 50000;
  smb::SmbServer server;
  const smb::Handle dst = server.create_floats(100, n);
  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, dst, c, n] {
      const smb::Handle src =
          server.create_floats(static_cast<smb::ShmKey>(c + 1), n);
      std::vector<float> ones(n, 1.0F);
      server.write(src, ones);
      for (int round = 0; round < kRounds; ++round) server.accumulate(src, dst);
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<float> out(n);
  server.read(dst, out);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], static_cast<float>(kClients * kRounds)) << i;
  }
}

// --- conv GEMM engine ------------------------------------------------------

TEST(ConvParallel, ForwardAndBackwardAreBitwiseWidthInvariant) {
  common::Rng rng(7);
  dl::Conv2d conv("c", 5, 12, 3, 1, 1);  // odd sizes: partial tiles everywhere
  conv.init_params(rng);
  dl::Tensor x({3, 5, 9, 11});
  for (float& v : x.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor top;
  conv.setup({&x}, top);
  dl::Tensor top_grad;

  std::vector<float> fwd_ref;
  std::vector<float> dx_ref;
  std::vector<float> dw_ref;
  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);
    conv.forward({&x}, top, true);
    const std::vector<float> fwd(top.data(), top.data() + top.size());

    if (top_grad.size() == 0) {
      top_grad.reshape(top.shape());
      for (float& v : top_grad.span()) v = static_cast<float>(rng.uniform(-0.1, 0.1));
    }
    for (dl::ParamBlob* blob : conv.params()) blob->grad.zero();
    dl::Tensor x_grad;
    x_grad.reshape(x.shape());
    std::vector<dl::Tensor*> bottom_grads{&x_grad};
    conv.backward({&x}, top, top_grad, bottom_grads);
    const std::vector<float> dx(x_grad.data(), x_grad.data() + x_grad.size());
    const dl::Tensor& dw_t = conv.params()[0]->grad;
    const std::vector<float> dw(dw_t.data(), dw_t.data() + dw_t.size());

    if (fwd_ref.empty()) {
      fwd_ref = fwd;
      dx_ref = dx;
      dw_ref = dw;
    } else {
      EXPECT_TRUE(same_bits(fwd, fwd_ref)) << "threads=" << threads;
      EXPECT_TRUE(same_bits(dx, dx_ref)) << "threads=" << threads;
      EXPECT_TRUE(same_bits(dw, dw_ref)) << "threads=" << threads;
    }
  }
}

TEST(ConvParallel, GradcheckHoldsUnderParallelGemm) {
  // Whole-net numerical gradient sweep with the pool fanned out: the tiled
  // parallel GEMM must still be the analytic gradient of the forward pass.
  parallel::set_thread_count(4);
  common::Rng rng(2026);
  dl::ModelInputSpec spec;
  spec.channels = 2;
  spec.height = 8;
  spec.width = 8;
  spec.classes = 4;
  dl::Net net = dl::make_model("mini_inception", spec);
  net.init_params(rng);
  for (dl::ParamBlob* blob : net.params()) {
    if (!blob->learnable) continue;
    for (float& v : blob->value.span()) v += static_cast<float>(rng.uniform(-0.05, 0.05));
  }
  dl::Tensor& data = net.input("data");
  data.reshape({2, spec.channels, spec.height, spec.width});
  for (float& v : data.span()) v = static_cast<float>(rng.uniform(-1, 1));
  dl::Tensor& labels = net.input("label");
  labels.reshape({2});
  for (float& v : labels.span()) {
    v = static_cast<float>(rng.uniform_int(0, spec.classes - 1));
  }
  const dl::GradCheckResult result = dl::check_gradients(net, 1e-3, 80, rng);
  EXPECT_EQ(result.checked, 80U);
  EXPECT_LT(result.rel_error_quantile(0.5), 0.01);
  EXPECT_LT(result.rel_error_quantile(0.9), 0.05);
  EXPECT_LT(result.max_rel_error, 0.5);
}

// --- whole training run ----------------------------------------------------

TEST(TrainParallel, TrainResultIsBitwiseIdenticalAcrossThreadCounts) {
  // Single worker + one epoch: the only nondeterminism in the stack is then
  // the pool width, which must not matter.  A small conv run (the ShmCaffe-A
  // family at toy scale) exercises im2col, the tiled GEMM, the SEASGD T2
  // exchange and the SMB accumulate end to end.
  core::DistTrainOptions options;
  options.model_family = "mini_inception";
  options.workers = 1;
  options.group_size = 1;
  options.input = dl::ModelInputSpec{1, 12, 12, 4};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 4;
  options.train_data.size = 256;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 128;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 1;

  std::vector<double> losses;
  std::vector<double> accuracies;
  for (const int threads : {1, 2, 4}) {
    parallel::set_thread_count(threads);
    const core::TrainResult result = core::train_shmcaffe(options);
    losses.push_back(result.final_loss);
    accuracies.push_back(result.final_accuracy);
    ASSERT_EQ(result.curve.size(), 1U) << "threads=" << threads;
  }
  EXPECT_EQ(losses[0], losses[1]);
  EXPECT_EQ(losses[0], losses[2]);
  EXPECT_EQ(accuracies[0], accuracies[1]);
  EXPECT_EQ(accuracies[0], accuracies[2]);
}

// --- lock order ------------------------------------------------------------

TEST(LockOrder, CleanUnderParallelKernels) {
  // Runs last (gtest preserves in-file order): everything above submitted
  // pool jobs, including accumulate's submit-under-segment-lock path.
  EXPECT_TRUE(common::LockOrderRegistry::instance().violations().empty())
      << common::LockOrderRegistry::instance().violations().size()
      << " lock-order violation(s); see stderr for details";
}

}  // namespace
}  // namespace shmcaffe
