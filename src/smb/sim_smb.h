// Simulated-time Soft Memory Box over the RDMA stack.
//
// The timing twin of server.h: same protocol (create/attach via control
// datagrams, one-sided RDMA read/write for data, server-side accumulate
// serialised per destination segment), but payloads are sizes only and all
// costs come from the fabric/verbs model.  This is the SMB that the paper's
// performance experiments (Figs. 7, 9, 10, 12–15) run against.
//
// Data-path model: the memory server's HCA is one 7 GB/s constraint shared
// by both directions (options.aggregate_data_path).  The paper's Fig. 7
// measures 6.7 GB/s aggregate for a 50/50 read/write mix against a 7 GB/s
// FDR HCA, i.e. reads and writes drain a common bottleneck — matching the
// RDS-derived kernel data path, which funnels both directions through one
// DMA/CPU pipeline.  Setting aggregate_data_path=false gives an idealised
// full-duplex server instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/units.h"
#include "net/fabric.h"
#include "rdma/verbs.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "smb/server.h"  // ShmKey, Handle, SmbError

namespace shmcaffe::smb {

struct SimSmbOptions {
  /// Server HCA bandwidth (bytes/second).  FDR InfiniBand: 7 GB/s.
  double server_bandwidth = 7e9;
  /// Server-side accumulate engine bandwidth: dst += src streams 2 reads and
  /// 1 write through the memory server's DDR3 controllers.
  double accumulate_bandwidth = 5e9;
  /// Client-visible bookkeeping overhead charged per data operation (SMB API
  /// request setup through the kernel module).
  SimTime op_overhead = 150 * units::kMicrosecond;
  /// Fixed server-side handling time per control request.
  SimTime control_service_time = 5 * units::kMicrosecond;
  /// Single shared data-path constraint at the server (see header comment).
  bool aggregate_data_path = true;
};

class SimSmbServer;

/// Client endpoint: one per simulated worker process.  Owns its own HCA.
class SimSmbClient {
 public:
  SimSmbClient(SimSmbServer& server, const std::string& name,
               double bandwidth_bytes_per_sec);

  /// Creates a segment of `bytes` under `key` (master worker, Fig. 2 step 1).
  [[nodiscard]] sim::Task<Handle> create(ShmKey key, std::int64_t bytes);

  /// Attaches to an existing segment (slave workers, Fig. 2 steps 3-4).
  [[nodiscard]] sim::Task<Handle> attach(ShmKey key);

  /// One-sided RDMA read of `bytes` from the segment.
  [[nodiscard]] sim::Task<void> read(Handle handle, std::int64_t bytes,
                                     std::int64_t offset = 0);

  /// One-sided RDMA write of `bytes` into the segment.
  [[nodiscard]] sim::Task<void> write(Handle handle, std::int64_t bytes,
                                      std::int64_t offset = 0);

  /// Requests the server to accumulate segment `src` into `dst`; completes
  /// when the server acknowledges (paper steps T.A2-T.A4).
  [[nodiscard]] sim::Task<void> accumulate(Handle src, Handle dst);

  [[nodiscard]] rdma::Device& device() { return *device_; }

 private:
  SimSmbServer* server_;
  std::unique_ptr<rdma::Device> device_;
  std::size_t mailbox_ = 0;
};

class SimSmbServer {
 public:
  SimSmbServer(sim::Simulation& sim, net::Fabric& fabric, SimSmbOptions options = {});
  ~SimSmbServer();
  SimSmbServer(const SimSmbServer&) = delete;
  SimSmbServer& operator=(const SimSmbServer&) = delete;

  /// Spawns the request-serving loop; call once before clients start.
  void start();

  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const SimSmbOptions& options() const { return options_; }
  [[nodiscard]] rdma::DatagramService& rds() { return rds_; }
  [[nodiscard]] std::size_t mailbox() const { return mailbox_; }

  [[nodiscard]] std::uint64_t accumulates_served() const { return accumulates_served_; }

 private:
  friend class SimSmbClient;

  enum Op : std::uint32_t {
    kCreate = 1,
    kAttach = 2,
    kAccumulate = 3,
    kOk = 100,
    kFail = 101,
  };

  struct SegmentInfo {
    ShmKey key = 0;
    std::int64_t bytes = 0;
    rdma::MemoryRegion mr;
    std::unique_ptr<sim::SimMutex> accumulate_gate;
  };

  [[nodiscard]] sim::Task<void> serve_loop();
  [[nodiscard]] sim::Task<void> handle_request(rdma::Datagram request);

  /// Links a client data transfer crosses, towards the server.
  [[nodiscard]] std::vector<net::LinkId> inbound_path(rdma::Device& client) const;
  /// ... and away from the server.
  [[nodiscard]] std::vector<net::LinkId> outbound_path(rdma::Device& client) const;

  SegmentInfo* find_segment(std::uint64_t access_key);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  SimSmbOptions options_;
  rdma::DatagramService rds_;
  std::unique_ptr<rdma::Device> device_;
  rdma::ProtectionDomain pd_;
  net::LinkId aggregate_link_;
  std::size_t mailbox_ = 0;
  bool started_ = false;

  std::unordered_map<ShmKey, std::uint64_t> key_to_access_;
  std::unordered_map<std::uint64_t, SegmentInfo> segments_;
  std::uint64_t next_access_key_ = 1;
  std::uint64_t accumulates_served_ = 0;
};

}  // namespace shmcaffe::smb
