// Portable SIMD micro-kernel cores for the float hot paths.
//
// One header, three compile-time tiers — AVX2 (8-wide), SSE2 (4-wide),
// scalar — selected by what the translation unit was compiled for.  The
// root CMakeLists turns the SHMCAFFE_SIMD option into `-mavx2` (when the
// compiler supports it); -DSHMCAFFE_SIMD=OFF defines SHMCAFFE_FORCE_SCALAR
// and every core collapses to the plain loop (the `simd` stage of
// tools/check.sh builds this configuration and re-runs the
// kernel-equivalence tests against it).
//
// Only the GEMM register block (gemm_block) carries intrinsics, and only
// for AVX2: it is the one core whose intrinsics measured faster than the
// plain loop (BENCH_kernels.json's conv and fc rows).  On the SSE2 and
// scalar tiers it runs its plain loops.  The add, sub and SEASGD exchange
// cores are plain loops on every tier — hand-written intrinsics bought
// nothing there, and the compiler is free to vectorise the loops itself
// under the same bitwise contract.
//
// Bitwise-identity contract (the reason these kernels are safe to adopt
// under the determinism story of common/parallel.h):
//
//   * The elementwise cores (add/sub, the SEASGD exchange algebra) compute
//     each output element as a fixed expression of same-index inputs, so
//     lane width cannot change results: an 8-wide lane computes exactly the
//     scalar expression.
//   * The register block vectorises across independent outputs, never
//     within one sum: each output element starts at its accumulator value
//     and adds a[i][r] * b[r][j] for r ascending, the order of a serial dot
//     product, whether it sits in a 4x16 or a 4x8 block of registers or in
//     the scalar column tail.  dl's GEMM engine (dl/layers.cc) runs every
//     dense product on it — conv forward, the conv weight gradient, the
//     conv input gradient and FullyConnected forward.
//   * Multiplies and adds stay *separate* instructions (no FMA
//     intrinsics, and the build never passes -mfma): a fused
//     multiply-add skips the intermediate rounding and would make the
//     AVX2 build diverge from the scalar one.  With the FMA ISA absent
//     the compiler cannot contract the scalar fallbacks either, so
//     SIMD and scalar builds, at any thread count, produce bit-identical
//     floats (asserted by tests/simd_test.cc and the BENCH_kernels.json
//     checksum fields).
//   * Reductions (dot products, checksums over doubles) are NOT offered
//     here on purpose: any widened reduction reorders the summation.
//
// The FNV-1a word hash lives here too: it is the integrity layer's
// per-chunk checksum core, processing 8 bytes per multiply instead of one.
// It is plain scalar uint64 code — identical on every tier — but it is a
// data-plane inner loop and versioned with the rest of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(SHMCAFFE_FORCE_SCALAR)
// Scalar tier forced by the build (tools/check.sh simd stage).
#elif defined(__AVX2__)
#define SHMCAFFE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define SHMCAFFE_SIMD_SSE2 1
#endif

namespace shmcaffe::common::simd {

/// Lanes per vector on the tier this TU compiled against.
inline constexpr std::size_t kWidth =
#if defined(SHMCAFFE_SIMD_AVX2)
    8;
#elif defined(SHMCAFFE_SIMD_SSE2)
    4;
#else
    1;
#endif

/// Tier name for bench/test labels.
inline constexpr const char* dispatch_name() {
#if defined(SHMCAFFE_SIMD_AVX2)
  return "avx2";
#elif defined(SHMCAFFE_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

namespace detail {

#if defined(SHMCAFFE_SIMD_AVX2)
/// One `MR` x 8*`NV` block of gemm_block's accumulator, held in AVX2
/// registers for the whole k loop.  The row and vector loops carry unroll
/// pragmas because GCC at -O2 (the default RelWithDebInfo tree) leaves them
/// rolled, and a rolled block keeps its accumulators in memory.
template <std::size_t MR, std::size_t NV>
inline void register_block(std::size_t cols, std::size_t k, const float* a,
                           std::size_t a_row_stride, std::size_t a_k_stride, const float* b,
                           std::size_t b_row_stride, float* acc) {
  __m256 c[MR][NV];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < MR; ++i) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) c[i][v] = _mm256_loadu_ps(acc + i * cols + 8 * v);
  }
  for (std::size_t r = 0; r < k; ++r, a += a_k_stride, b += b_row_stride) {
    __m256 bv[NV];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(b + 8 * v);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < MR; ++i) {
      const __m256 av = _mm256_broadcast_ss(a + i * a_row_stride);
#pragma GCC unroll 2
      for (std::size_t v = 0; v < NV; ++v) {
        c[i][v] = _mm256_add_ps(c[i][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t i = 0; i < MR; ++i) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < NV; ++v) _mm256_storeu_ps(acc + i * cols + 8 * v, c[i][v]);
  }
}
#endif

/// gemm_block over `MR` rows (1 to 4): 16-column register blocks, then
/// 8-column ones (AVX2 only), then one column at a time in scalars.
template <std::size_t MR>
inline void gemm_block_rows(std::size_t cols, std::size_t k, const float* a,
                            std::size_t a_row_stride, std::size_t a_k_stride, const float* b,
                            std::size_t b_row_stride, float* acc) {
  std::size_t j = 0;
#if defined(SHMCAFFE_SIMD_AVX2)
  for (; j + 16 <= cols; j += 16) {
    register_block<MR, 2>(cols, k, a, a_row_stride, a_k_stride, b + j, b_row_stride, acc + j);
  }
  for (; j + 8 <= cols; j += 8) {
    register_block<MR, 1>(cols, k, a, a_row_stride, a_k_stride, b + j, b_row_stride, acc + j);
  }
#endif
  for (; j < cols; ++j) {
    float c[MR];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < MR; ++i) c[i] = acc[i * cols + j];
    const float* acol = a;
    for (std::size_t r = 0; r < k; ++r, acol += a_k_stride) {
      const float bv = b[r * b_row_stride + j];
#pragma GCC unroll 4
      for (std::size_t i = 0; i < MR; ++i) c[i] += acol[i * a_row_stride] * bv;
    }
#pragma GCC unroll 4
    for (std::size_t i = 0; i < MR; ++i) acc[i * cols + j] = c[i];
  }
}

}  // namespace detail

/// The GEMM engine's register block (dl/layers.cc), over one `rows` x
/// `cols` tile: acc[i][j] += a[i][r] * b[r][j] for r ascending from 0 to
/// k, multiply and add separate, so each element keeps the bits of a serial
/// dot product started at its accumulator value.  A element (i, r) sits at
/// a[i * a_row_stride + r * a_k_stride] (a k-stride lets a caller pass a
/// transpose without forming it), B row r at b + r * b_row_stride, and
/// acc's rows are packed at `cols` floats.  Rows go in blocks of four,
/// then one block of the remaining one to three.
inline void gemm_block(std::size_t rows, std::size_t cols, std::size_t k, const float* a,
                       std::size_t a_row_stride, std::size_t a_k_stride, const float* b,
                       std::size_t b_row_stride, float* acc) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    detail::gemm_block_rows<4>(cols, k, a + i * a_row_stride, a_row_stride, a_k_stride, b,
                               b_row_stride, acc + i * cols);
  }
  const float* arest = a + i * a_row_stride;
  float* accrest = acc + i * cols;
  switch (rows - i) {
    case 3:
      detail::gemm_block_rows<3>(cols, k, arest, a_row_stride, a_k_stride, b, b_row_stride,
                                 accrest);
      break;
    case 2:
      detail::gemm_block_rows<2>(cols, k, arest, a_row_stride, a_k_stride, b, b_row_stride,
                                 accrest);
      break;
    case 1:
      detail::gemm_block_rows<1>(cols, k, arest, a_row_stride, a_k_stride, b, b_row_stride,
                                 accrest);
      break;
    default:
      break;
  }
}

/// dst[i] += src[i].  The SMB server-side accumulate core (eq. 7).
inline void add_inplace(std::size_t n, float* dst, const float* src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// dst[i] -= src[i].  Eq. (6) half of the exchange.
inline void sub_inplace(std::size_t n, float* dst, const float* src) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

/// delta[i] = alpha * (local[i] - global[i]) — eq. (5), the SEASGD weight
/// increment.  mul after sub, never fused.
inline void weight_increment_core(std::size_t n, const float* local, const float* global,
                                  float alpha, float* delta) {
  for (std::size_t i = 0; i < n; ++i) delta[i] = alpha * (local[i] - global[i]);
}

/// Fused eqs. (5)+(6): delta[i] = alpha*(local[i]-global[i]);
/// local[i] -= delta[i].  One pass over the three spans — the T1 exchange
/// inner loop (core/seasgd_math.h), including its zero-copy pinned-read
/// form where `global` is a span directly into SMB segment storage.
inline void elastic_exchange_core(std::size_t n, float* local, const float* global,
                                  float alpha, float* delta) {
  for (std::size_t i = 0; i < n; ++i) {
    const float d = alpha * (local[i] - global[i]);
    delta[i] = d;
    local[i] -= d;
  }
}

/// FNV-1a over `bytes` of `data`, folding 8 bytes per multiply with a
/// byte-wise tail.  NOT the byte-serial FNV-1a value — a distinct,
/// self-consistent hash family used only where writer and verifier share
/// the function (the SMB per-chunk checksums; persisted checkpoint hashes
/// keep their own byte-serial FNV in recovery/checkpoint.cc).  Identical
/// output on every SIMD tier and thread count: it is sequential uint64
/// arithmetic over a fixed byte order.
inline std::uint64_t fnv1a_words(const void* data, std::size_t bytes,
                                 std::uint64_t seed = 0xcbf29ce484222325ULL) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    hash = (hash ^ word) * kPrime;
  }
  for (; i < bytes; ++i) hash = (hash ^ p[i]) * kPrime;
  return hash;
}

}  // namespace shmcaffe::common::simd
