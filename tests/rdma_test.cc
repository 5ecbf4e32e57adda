// Tests for the verbs-like RDMA layer: registration, protection and the
// datagram control channel.  The one-sided data path is the simulated SMB
// client's (sim_smb_test).
#include <gtest/gtest.h>

#include "net/fabric.h"
#include "rdma/verbs.h"
#include "sim/simulation.h"

namespace shmcaffe::rdma {
namespace {

struct Rig {
  sim::Simulation sim;
  net::Fabric fabric;
  Device server;
  Device client;
  ProtectionDomain server_pd;

  explicit Rig(net::FabricOptions opts = make_opts())
      : fabric(sim, opts),
        server(sim, fabric, "server", 1e9),
        client(sim, fabric, "client", 1e9),
        server_pd(server) {}

  static net::FabricOptions make_opts() {
    net::FabricOptions opts;
    opts.message_latency = 0;
    opts.efficiency = 1.0;
    return opts;
  }
};

TEST(ProtectionDomain, RegistersDistinctKeysAndAddresses) {
  Rig rig;
  const MemoryRegion a = rig.server_pd.register_memory(4096);
  const MemoryRegion b = rig.server_pd.register_memory(4096);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_NE(a.lkey, b.lkey);
  EXPECT_NE(a.addr, b.addr);
  EXPECT_EQ(rig.server_pd.region_count(), 2u);
}

TEST(ProtectionDomain, ValidAccessPasses) {
  Rig rig;
  const MemoryRegion mr = rig.server_pd.register_memory(1000);
  EXPECT_NO_THROW(rig.server_pd.check_remote_access(mr.rkey, 0, 1000));
  EXPECT_NO_THROW(rig.server_pd.check_remote_access(mr.rkey, 500, 500));
  EXPECT_NO_THROW(rig.server_pd.check_remote_access(mr.rkey, 999, 0));
}

TEST(ProtectionDomain, InvalidRkeyThrows) {
  Rig rig;
  (void)rig.server_pd.register_memory(1000);
  EXPECT_THROW(rig.server_pd.check_remote_access(0xdead, 0, 1), AccessError);
}

TEST(ProtectionDomain, OutOfBoundsThrows) {
  Rig rig;
  const MemoryRegion mr = rig.server_pd.register_memory(1000);
  EXPECT_THROW(rig.server_pd.check_remote_access(mr.rkey, 0, 1001), AccessError);
  EXPECT_THROW(rig.server_pd.check_remote_access(mr.rkey, 999, 2), AccessError);
  EXPECT_THROW(rig.server_pd.check_remote_access(mr.rkey, -1, 1), AccessError);
}

TEST(DatagramService, DeliversInOrderWithPayloadIntact) {
  Rig rig;
  DatagramService rds(rig.sim);
  const std::size_t s = rds.attach(rig.server);
  const std::size_t c = rds.attach(rig.client);
  std::vector<std::uint64_t> received;
  rig.sim.spawn([](DatagramService& svc, std::size_t from, std::size_t to) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 5; ++i) {
      Datagram dg;
      dg.opcode = 7;
      dg.a = i;
      co_await svc.send_to(from, to, dg);
    }
  }(rds, c, s));
  rig.sim.spawn([](DatagramService& svc, std::size_t at, std::vector<std::uint64_t>& out)
                    -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      const Datagram dg = co_await svc.recv(at);
      EXPECT_EQ(dg.opcode, 7u);
      out.push_back(dg.a);
    }
  }(rds, s, received));
  rig.sim.run();
  EXPECT_EQ(received, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(DatagramService, SourceIsStampedForReplies) {
  Rig rig;
  DatagramService rds(rig.sim);
  const std::size_t s = rds.attach(rig.server);
  const std::size_t c = rds.attach(rig.client);
  std::uint64_t reply_value = 0;
  // Server: echo a+1 back to the datagram's source.
  rig.sim.spawn([](DatagramService& svc, std::size_t me) -> sim::Task<> {
    const Datagram req = co_await svc.recv(me);
    Datagram rsp;
    rsp.a = req.a + 1;
    co_await svc.send_to(me, req.source, rsp);
  }(rds, s));
  rig.sim.spawn([](DatagramService& svc, std::size_t me, std::size_t server,
                   std::uint64_t& out) -> sim::Task<> {
    Datagram req;
    req.a = 41;
    co_await svc.send_to(me, server, req);
    const Datagram rsp = co_await svc.recv(me);
    out = rsp.a;
  }(rds, c, s, reply_value));
  rig.sim.run();
  EXPECT_EQ(reply_value, 42u);
}

}  // namespace
}  // namespace shmcaffe::rdma
