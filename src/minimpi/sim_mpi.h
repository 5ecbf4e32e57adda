// Simulated-time twin of the MiniMPI collectives.
//
// In the timing model the synchronous platforms (Caffe-MPI, MPICaffe) are
// driven one iteration at a time, so their collectives are modelled as joint
// operations over the ranks' fabric endpoints rather than as per-rank
// message exchanges:
//
//  * ring_allreduce — MPICaffe's MPI_Allreduce: 2(N-1) synchronous steps of
//    `bytes / N` around the ring.
//  * broadcast — root pushes `bytes` to every other rank concurrently.
//
// All operations complete when the slowest participant finishes, matching
// the synchronous SGD barrier the paper describes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/fabric.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace shmcaffe::minimpi {

class SimGroupOps {
 public:
  SimGroupOps(sim::Simulation& sim, net::Fabric& fabric,
              std::vector<net::Fabric::Endpoint> ranks)
      : sim_(&sim), fabric_(&fabric), ranks_(std::move(ranks)) {}

  [[nodiscard]] std::size_t size() const { return ranks_.size(); }

  /// Point-to-point transfer of `bytes` between two ranks.
  [[nodiscard]] sim::Task<void> send(int from, int to, std::int64_t bytes);

  /// Ring allreduce of a `bytes`-sized buffer across all ranks.
  [[nodiscard]] sim::Task<void> ring_allreduce(std::int64_t bytes);

  /// Root pushes `bytes` to every other rank, concurrently.
  [[nodiscard]] sim::Task<void> broadcast(int root, std::int64_t bytes);

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  std::vector<net::Fabric::Endpoint> ranks_;
};

}  // namespace shmcaffe::minimpi
