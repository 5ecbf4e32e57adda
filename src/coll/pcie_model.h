// PCIe cost model for intra-node collectives (the timing twin of nccl.h).
//
// GPUs inside one server exchange data over the PCIe system bus (the paper
// notes ShmCaffe's intra-node traffic rides PCI-E).  The model treats the
// node's PCIe complex as a single shared full-duplex pipe of
// `bus_bandwidth` bytes/s and prices the standard ring algorithms:
//
//   ring allreduce :  2 (K-1)/K * bytes / bus_bandwidth   + 2(K-1) hops
//   broadcast      :  (K-1)/K   * bytes / bus_bandwidth   + (K-1)  hops
//
// With K devices on a ring over one shared bus, each algorithm step moves K
// chunks of bytes/K concurrently, so a step costs bytes/K / bus_bandwidth
// x K = bytes / bus_bandwidth ... empirically NCCL's ring on one PCIe root
// complex achieves roughly the single-link rate, which is what the formula
// above (per-step cost = chunk/bandwidth, K chunks overlapped across
// distinct link segments) expresses.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace shmcaffe::coll {

struct PcieModel {
  /// Effective per-direction PCIe bandwidth between peers (bytes/second).
  /// PCIe 3.0 x16 peaks at ~12.5 GB/s; effective P2P rates on the paper's
  /// 4-GPU SuperMicro boxes are lower.
  double bus_bandwidth = 10e9;
  /// Per-hop launch/synchronisation latency of a collective step.
  SimTime hop_latency = 20 * units::kMicrosecond;

  /// Time for a K-device ring allreduce of a `bytes` buffer.
  [[nodiscard]] SimTime ring_allreduce_time(int devices, std::int64_t bytes) const {
    if (devices <= 1 || bytes <= 0) return 0;
    const double k = devices;
    const double data_seconds =
        2.0 * (k - 1.0) / k * static_cast<double>(bytes) / bus_bandwidth;
    return units::from_seconds(data_seconds) + 2 * (devices - 1) * hop_latency;
  }

  /// Time for a K-device ring broadcast of a `bytes` buffer.
  [[nodiscard]] SimTime broadcast_time(int devices, std::int64_t bytes) const {
    if (devices <= 1 || bytes <= 0) return 0;
    const double k = devices;
    const double data_seconds = (k - 1.0) / k * static_cast<double>(bytes) / bus_bandwidth;
    return units::from_seconds(data_seconds) + (devices - 1) * hop_latency;
  }
};

}  // namespace shmcaffe::coll
