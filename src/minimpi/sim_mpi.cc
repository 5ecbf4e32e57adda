#include "minimpi/sim_mpi.h"

#include <cassert>

namespace shmcaffe::minimpi {

sim::Task<void> SimGroupOps::send(int from, int to, std::int64_t bytes) {
  assert(from >= 0 && static_cast<std::size_t>(from) < ranks_.size());
  assert(to >= 0 && static_cast<std::size_t>(to) < ranks_.size());
  return fabric_->transfer(ranks_[static_cast<std::size_t>(from)].tx,
                           ranks_[static_cast<std::size_t>(to)].rx, bytes);
}

sim::Task<void> SimGroupOps::ring_allreduce(std::int64_t bytes) {
  const int n = static_cast<int>(ranks_.size());
  if (n <= 1) co_return;
  const std::int64_t chunk = (bytes + n - 1) / n;
  // 2(N-1) synchronous steps; in each, every rank forwards one chunk to its
  // successor and all transfers must land before the next step starts.
  for (int step = 0; step < 2 * (n - 1); ++step) {
    std::vector<sim::Task<void>> transfers;
    transfers.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      transfers.push_back(send(r, (r + 1) % n, chunk));
    }
    co_await sim::when_all(*sim_, std::move(transfers));
  }
}

sim::Task<void> SimGroupOps::broadcast(int root, std::int64_t bytes) {
  std::vector<sim::Task<void>> transfers;
  for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) {
    if (r != root) transfers.push_back(send(root, r, bytes));
  }
  co_await sim::when_all(*sim_, std::move(transfers));
}

}  // namespace shmcaffe::minimpi
