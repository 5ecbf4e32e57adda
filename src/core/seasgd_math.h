// SEASGD update algebra — equations (2)–(7) of the paper.
//
// Local solver step (eq. 2) is the ordinary SGD update and lives in
// dl::SgdSolver.  The elastic-averaging exchange is:
//
//   dW_x  = alpha * (W'_x - W_g)      (5)  weight increment
//   W''_x = W'_x - dW_x               (6)  local weight update
//   W'_g  = W_g + dW_x                (7)  global accumulate (SMB side)
//
// These helpers operate on flat float spans (the SMB segment layout) and are
// shared by the functional trainers; (7) is performed by the SMB server's
// accumulate operation.
//
// The fused exchange also comes in a `_parallel` form that runs the same
// loop in fixed-size chunks on the shared work pool.  Every element is
// written by exactly one chunk and no chunk reads another chunk's output, so
// it is bitwise identical to the scalar form for any pool width (see
// common/parallel.h).  The element loops themselves are the
// common/simd.h cores — lane-independent elementwise algebra with multiply
// and add kept separate, so the SIMD and scalar-fallback builds are also
// bitwise identical (tests/simd_test.cc).
#pragma once

#include <cassert>
#include <span>

#include "common/parallel.h"
#include "common/simd.h"

namespace shmcaffe::core {

/// Elements of a model span handed to one pool chunk by
/// elastic_exchange_parallel.  64 KiB of floats — large enough that per-chunk dispatch
/// overhead is negligible, small enough that ShmCaffe-B/C models still
/// spread across every executor.
inline constexpr std::size_t kSeasgdGrain = 16384;

/// Computes the weight increment dW = alpha * (local - global)   (eq. 5).
SHMCAFFE_HOT_KERNEL inline void weight_increment(std::span<const float> local, std::span<const float> global,
                             float alpha, std::span<float> delta) {
  assert(local.size() == global.size() && local.size() == delta.size());
  common::simd::weight_increment_core(local.size(), local.data(), global.data(), alpha,
                                      delta.data());
}

/// Applies the local update  W'' = W' - dW   (eq. 6).
SHMCAFFE_HOT_KERNEL inline void apply_increment_locally(std::span<float> local, std::span<const float> delta) {
  assert(local.size() == delta.size());
  common::simd::sub_inplace(local.size(), local.data(), delta.data());
}

/// Fused (5)+(6): computes delta and updates local in one pass.
SHMCAFFE_HOT_KERNEL inline void elastic_exchange(std::span<float> local, std::span<const float> global,
                             float alpha, std::span<float> delta) {
  assert(local.size() == global.size() && local.size() == delta.size());
  common::simd::elastic_exchange_core(local.size(), local.data(), global.data(), alpha,
                                      delta.data());
}

/// Chunked fused (5)+(6): bitwise identical to elastic_exchange.
SHMCAFFE_HOT_KERNEL inline void elastic_exchange_parallel(std::span<float> local, std::span<const float> global,
                                      float alpha, std::span<float> delta) {
  assert(local.size() == global.size() && local.size() == delta.size());
  common::parallel::parallel_for(
      local.size(), kSeasgdGrain, [&](std::size_t begin, std::size_t end) {
        common::simd::elastic_exchange_core(end - begin, local.data() + begin,
                                            global.data() + begin, alpha,
                                            delta.data() + begin);
      });
}

}  // namespace shmcaffe::core
