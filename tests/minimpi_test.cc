// Tests for MiniMPI: point-to-point semantics, tag/source matching, and all
// collectives, run on real threads; plus the simulated-time group ops.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/ordered_mutex.h"
#include "common/rng.h"
#include "common/units.h"
#include "minimpi/minimpi.h"
#include "minimpi/sim_mpi.h"
#include "net/fabric.h"

namespace shmcaffe::minimpi {
namespace {

using shmcaffe::units::kMillisecond;

/// Runs `body(endpoint)` on `n` threads, one per rank.
template <typename Body>
void run_world(int n, Body body) {
  Context context(n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([&context, r, &body] { body(context.endpoint(r)); });
  }
  for (auto& t : threads) t.join();
}

TEST(MiniMpi, SendRecvValue) {
  run_world(2, [](Endpoint ep) {
    if (ep.rank() == 0) {
      ep.send_value(1, 7, 12345);
    } else {
      EXPECT_EQ(ep.recv_value<int>(0, 7), 12345);
    }
  });
}

TEST(MiniMpi, TagMatchingSkipsNonMatchingMessages) {
  run_world(2, [](Endpoint ep) {
    if (ep.rank() == 0) {
      ep.send_value(1, 1, 100);
      ep.send_value(1, 2, 200);
    } else {
      // Receive tag 2 first even though tag 1 arrived first.
      EXPECT_EQ(ep.recv_value<int>(0, 2), 200);
      EXPECT_EQ(ep.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(MiniMpi, AnySourceReceivesFromWhoever) {
  run_world(3, [](Endpoint ep) {
    if (ep.rank() == 0) {
      int sum = 0;
      sum += ep.recv_value<int>(kAnySource, 5);
      sum += ep.recv_value<int>(kAnySource, 5);
      EXPECT_EQ(sum, 30);
    } else {
      ep.send_value(0, 5, ep.rank() * 10);
    }
  });
}

TEST(MiniMpi, FifoPerSourceAndTag) {
  run_world(2, [](Endpoint ep) {
    constexpr int kCount = 100;
    if (ep.rank() == 0) {
      for (int i = 0; i < kCount; ++i) ep.send_value(1, 3, i);
    } else {
      for (int i = 0; i < kCount; ++i) EXPECT_EQ(ep.recv_value<int>(0, 3), i);
    }
  });
}

TEST(MiniMpi, SendFloatsRoundTrip) {
  run_world(2, [](Endpoint ep) {
    const std::vector<float> data{1.5F, -2.25F, 3.0F};
    if (ep.rank() == 0) {
      ep.send_floats(1, 9, data);
    } else {
      std::vector<float> out(3);
      ep.recv_floats(0, 9, out);
      EXPECT_EQ(out, data);
    }
  });
}

TEST(MiniMpi, RecvSizeMismatchThrows) {
  run_world(2, [](Endpoint ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 9, std::vector<float>{1, 2, 3});
    } else {
      std::vector<float> out(2);
      EXPECT_THROW(ep.recv_floats(0, 9, out), MpiError);
    }
  });
}

TEST(MiniMpi, InvalidRanksThrow) {
  Context context(2);
  Endpoint ep = context.endpoint(0);
  EXPECT_THROW(ep.send_value(5, 0, 1), MpiError);
  EXPECT_THROW((void)ep.recv_value<int>(7, 0), MpiError);
  EXPECT_THROW((void)context.endpoint(2), MpiError);
  EXPECT_THROW(Context(0), MpiError);
}

TEST(MiniMpi, BarrierSynchronisesAllRanks) {
  constexpr int kRanks = 6;
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_world(kRanks, [&](Endpoint ep) {
    for (int round = 0; round < 20; ++round) {
      before.fetch_add(1);
      ep.barrier();
      // After the barrier, all kRanks increments of this round are visible.
      if (before.load() < (round + 1) * kRanks) violated = true;
      ep.barrier();
    }
  });
  EXPECT_FALSE(violated);
}

TEST(MiniMpi, BroadcastDistributesRootBuffer) {
  for (int n : {1, 2, 5}) {
    run_world(n, [](Endpoint ep) {
      std::vector<float> data(4, ep.rank() == 0 ? 3.14F : 0.0F);
      ep.broadcast(0, data);
      for (float v : data) EXPECT_EQ(v, 3.14F);
    });
  }
}

TEST(MiniMpi, BroadcastValueFromNonZeroRoot) {
  run_world(4, [](Endpoint ep) {
    std::uint64_t key = ep.rank() == 2 ? 0xdeadbeefULL : 0;
    ep.broadcast_value(2, key);
    EXPECT_EQ(key, 0xdeadbeefULL);
  });
}

TEST(MiniMpi, AllreduceSumMatchesSequential) {
  for (int n : {1, 2, 3, 4, 8}) {
    for (std::size_t len : {1UL, 7UL, 64UL, 1000UL}) {
      std::vector<std::vector<float>> inputs(static_cast<std::size_t>(n));
      common::Rng rng(static_cast<std::uint64_t>(n) * 1000 + len);
      for (auto& in : inputs) {
        in.resize(len);
        for (float& v : in) v = static_cast<float>(rng.uniform(-1, 1));
      }
      std::vector<float> expected(len, 0.0F);
      for (const auto& in : inputs) {
        for (std::size_t i = 0; i < len; ++i) expected[i] += in[i];
      }
      run_world(n, [&](Endpoint ep) {
        std::vector<float> mine = inputs[static_cast<std::size_t>(ep.rank())];
        ep.allreduce_sum(mine);
        for (std::size_t i = 0; i < len; ++i) {
          EXPECT_NEAR(mine[i], expected[i], 1e-4F) << "n=" << n << " len=" << len;
        }
      });
    }
  }
}

TEST(MiniMpi, AllreduceLengthShorterThanWorld) {
  // len < n exercises empty chunks in the ring.
  run_world(8, [](Endpoint ep) {
    std::vector<float> data{static_cast<float>(ep.rank() + 1)};
    ep.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 36.0F);  // 1+2+...+8
  });
}

TEST(MiniMpi, ConsecutiveCollectivesDoNotInterfere) {
  run_world(4, [](Endpoint ep) {
    for (int round = 0; round < 50; ++round) {
      std::vector<float> data{1.0F};
      ep.allreduce_sum(data);
      EXPECT_FLOAT_EQ(data[0], 4.0F) << "round " << round;
    }
  });
}

TEST(MiniMpi, ReduceSumOnlyAtRoot) {
  run_world(4, [](Endpoint ep) {
    std::vector<float> data(3, static_cast<float>(ep.rank()));
    ep.reduce_sum(1, data);
    if (ep.rank() == 1) {
      for (float v : data) EXPECT_FLOAT_EQ(v, 6.0F);  // 0+1+2+3
    }
  });
}

// --- simulated-time group ops ---

struct SimRig {
  sim::Simulation sim;
  net::Fabric fabric;

  SimRig() : fabric(sim, make_opts()) {}
  static net::FabricOptions make_opts() {
    net::FabricOptions opts;
    opts.message_latency = 0;
    opts.efficiency = 1.0;
    return opts;
  }

  SimGroupOps make_group(int n, double bw) {
    std::vector<net::Fabric::Endpoint> eps;
    for (int i = 0; i < n; ++i) eps.push_back(fabric.add_endpoint("r" + std::to_string(i), bw));
    return SimGroupOps(sim, fabric, std::move(eps));
  }
};

TEST(SimGroupOps, RingAllreduceScalesWithTwoNMinusOneOverN) {
  // Ring time ~= 2(N-1)/N * bytes / bw for large buffers.
  for (int n : {2, 4, 8}) {
    SimRig rig;
    SimGroupOps group = rig.make_group(n, 1e9);
    rig.sim.spawn(group.ring_allreduce(8'000'000));
    rig.sim.run();
    const double expected = 2.0 * (n - 1) / n * 8.0 * kMillisecond;
    EXPECT_NEAR(static_cast<double>(rig.sim.now()), expected, 0.1 * kMillisecond) << n;
  }
}

TEST(SimGroupOps, BroadcastContendsOnRootTx) {
  SimRig rig;
  SimGroupOps group = rig.make_group(4, 1e9);
  rig.sim.spawn(group.broadcast(0, 1'000'000));
  rig.sim.run();
  EXPECT_NEAR(static_cast<double>(rig.sim.now()), 3.0 * kMillisecond, 50'000.0);
}

TEST(SimGroupOps, SingleRankOpsAreFree) {
  SimRig rig;
  SimGroupOps group = rig.make_group(1, 1e9);
  rig.sim.spawn(group.ring_allreduce(1'000'000));
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), 0);
}


// Lock-order guard: the suite above drives the instrumented mutexes hard
// (mailbox + barrier locks across ranks); any rank inversion or acquisition-graph cycle they produced
// is a latent deadlock.  Runs last in this binary by declaration order.
TEST(LockOrder, CleanUnderCollectives) {
  EXPECT_TRUE(shmcaffe::common::LockOrderRegistry::instance().violations().empty())
      << shmcaffe::common::LockOrderRegistry::instance().violations().size()
      << " lock-order violation(s); see stderr for details";
}

}  // namespace
}  // namespace shmcaffe::minimpi
