// Traced replay of a workload's steady-state training step.
//
// Rebuilds one workload from the program's public calls only (SmbServer,
// ShardedBuffer, ProgressBoard, Prefetcher, Net, SgdSolver, the coll
// collectives, elastic_exchange_parallel, core::evaluate) and runs a fixed
// number of steps per worker on the workload's own thread count.  It keeps
// Fig. 6's structure: T1/T2 run under the per-worker exchange lock, and an
// update thread per group root does the T.A1-A4 flush.  With a Tracer every
// call is wrapped in a span; with nullptr the same code runs untraced.
#pragma once

#include <cstdint>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  double wall_seconds = 0.0;          ///< first step start to last step end
  std::int64_t worker_steps = 0;      ///< steps summed over workers
  std::int64_t exchanges = 0;         ///< SEASGD exchanges (group roots)
  std::uint64_t cow_clones = 0;       ///< SmbServer::stats() over the steps
  std::int64_t bytes_moved = 0;       ///< bytes read + written over the steps
  [[nodiscard]] double samples_per_s() const {
    return static_cast<double>(worker_steps * kBatch) / wall_seconds;
  }
  ReplayResult& operator+=(const ReplayResult& other) {
    wall_seconds += other.wall_seconds;
    worker_steps += other.worker_steps;
    exchanges += other.exchanges;
    cow_clones += other.cow_clones;
    bytes_moved += other.bytes_moved;
    return *this;
  }
};

/// Runs the step replay; spans go to `tracer` unless it is nullptr.
ReplayResult run_replay(const Workload& workload, std::uint64_t seed, Tracer* tracer);

/// The traced calls that sit outside the step: evaluate() on the held-out
/// split, the one-device collective on ShmCaffe-A workloads (which have no
/// group), and empty parallel_for calls issued concurrently from the
/// workload's submitter count.
void run_probes(const Workload& workload, std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
