// Bitwise-identity tests for the SIMD micro-kernel cores (common/simd.h).
//
// Every core is compared against a freshly written scalar loop over the same
// inputs and must match *bit for bit* — not approximately.  Because the same
// scalar references compile in both the SIMD and the forced-scalar build
// (tools/check.sh `simd` stage runs this binary from a -DSHMCAFFE_SIMD=OFF
// tree), passing in both trees proves the two builds agree transitively.
// Tail sizes (n % lane-width != 0) are always included: the remainder loop
// is where a vectorised kernel diverges first if it is wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"

namespace shmcaffe::common::simd {
namespace {

// Sizes straddling the 4-, 8- and 16-lane boundaries plus odd tails.
const std::vector<std::size_t> kSizes = {0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 64, 100, 1003};

std::vector<float> random_floats(std::size_t n, std::uint32_t seed) {
  common::Rng rng(seed);
  std::vector<float> values(n);
  for (float& v : values) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return values;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdDispatch, TierMatchesCompileFlags) {
  const std::string name = dispatch_name();
#if defined(SHMCAFFE_FORCE_SCALAR)
  EXPECT_EQ(name, "scalar");
  EXPECT_EQ(kWidth, 1U);
#else
  EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "scalar") << name;
  EXPECT_TRUE(kWidth == 8 || kWidth == 4 || kWidth == 1);
#endif
}

TEST(SimdCores, GemmBlockMatchesScalarBitwise) {
  // Row counts 1-9 cover the 4-row blocks and every 1-3-row remainder;
  // column counts cover the 16- and 8-column register blocks and every
  // scalar tail (36 = 16 + 16 + 4, mini_inception's 6x6 maps); k = 0 must
  // leave the accumulator untouched.  A is read both row-major and through
  // its k-stride (the engine's W^T operand), from inside wider buffers so
  // the strides differ from the extents.
  for (const std::size_t rows : {1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 9U}) {
    for (const std::size_t cols : {1U, 4U, 7U, 8U, 9U, 12U, 15U, 16U, 17U, 24U, 31U, 36U, 40U}) {
      for (const std::size_t k : {0U, 1U, 5U, 18U}) {
        for (const bool transposed : {false, true}) {
          const auto seed = static_cast<std::uint32_t>(rows * 10007 + cols * 101 + k);
          const std::size_t b_row_stride = cols + 3;
          const std::size_t a_row_stride = transposed ? 1 : k + 2;
          const std::size_t a_k_stride = transposed ? rows + 5 : 1;
          const std::vector<float> a = random_floats((rows + 5) * (k + 2), seed);
          const std::vector<float> b = random_floats(k * b_row_stride, seed + 1);
          const std::vector<float> acc0 = random_floats(rows * cols, seed + 2);

          std::vector<float> expected = acc0;
          for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
              float e = expected[i * cols + j];
              for (std::size_t r = 0; r < k; ++r) {
                e += a[i * a_row_stride + r * a_k_stride] * b[r * b_row_stride + j];
              }
              expected[i * cols + j] = e;
            }
          }

          std::vector<float> actual = acc0;
          gemm_block(rows, cols, k, a.data(), a_row_stride, a_k_stride, b.data(), b_row_stride,
                     actual.data());
          EXPECT_TRUE(same_bits(expected, actual))
              << "rows=" << rows << " cols=" << cols << " k=" << k
              << (transposed ? " k-strided A" : " row-major A");
        }
      }
    }
  }
}

TEST(SimdCores, AddAndSubInplaceMatchScalarBitwise) {
  for (const std::size_t n : kSizes) {
    const std::vector<float> src = random_floats(n, 0xC0 + static_cast<std::uint32_t>(n));
    const std::vector<float> dst0 = random_floats(n, 0xD0 + static_cast<std::uint32_t>(n));

    std::vector<float> expected = dst0;
    for (std::size_t i = 0; i < n; ++i) expected[i] += src[i];
    std::vector<float> actual = dst0;
    add_inplace(n, actual.data(), src.data());
    EXPECT_TRUE(same_bits(expected, actual)) << "add n=" << n;

    expected = dst0;
    for (std::size_t i = 0; i < n; ++i) expected[i] -= src[i];
    actual = dst0;
    sub_inplace(n, actual.data(), src.data());
    EXPECT_TRUE(same_bits(expected, actual)) << "sub n=" << n;
  }
}

TEST(SimdCores, WeightIncrementMatchesScalarBitwise) {
  // delta = alpha * (local - global): mul after sub, never fused, so the
  // vector lanes must reproduce the scalar rounding exactly.
  for (const std::size_t n : kSizes) {
    const std::vector<float> local = random_floats(n, 0xE0 + static_cast<std::uint32_t>(n));
    const std::vector<float> global = random_floats(n, 0xF0 + static_cast<std::uint32_t>(n));
    const float alpha = 0.0625F;

    std::vector<float> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = alpha * (local[i] - global[i]);

    std::vector<float> actual(n, -1.0F);
    weight_increment_core(n, local.data(), global.data(), alpha, actual.data());
    EXPECT_TRUE(same_bits(expected, actual)) << "n=" << n;
  }
}

TEST(SimdCores, ElasticExchangeMatchesScalarBitwise) {
  for (const std::size_t n : kSizes) {
    const std::vector<float> local0 = random_floats(n, 0x10 + static_cast<std::uint32_t>(n));
    const std::vector<float> global = random_floats(n, 0x20 + static_cast<std::uint32_t>(n));
    const float alpha = 0.271F;

    std::vector<float> expected_local = local0;
    std::vector<float> expected_delta(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float d = alpha * (expected_local[i] - global[i]);
      expected_delta[i] = d;
      expected_local[i] -= d;
    }

    std::vector<float> actual_local = local0;
    std::vector<float> actual_delta(n, -1.0F);
    elastic_exchange_core(n, actual_local.data(), global.data(), alpha,
                          actual_delta.data());
    EXPECT_TRUE(same_bits(expected_local, actual_local)) << "local n=" << n;
    EXPECT_TRUE(same_bits(expected_delta, actual_delta)) << "delta n=" << n;
  }
}

TEST(SimdChecksum, Fnv1aWordsMatchesGoldenValues) {
  // Golden values pin the hash family across builds: the SIMD tree and the
  // forced-scalar tree must both produce exactly these words, so segment
  // checksums written by one build verify in the other.
  EXPECT_EQ(fnv1a_words("", 0), 0xcbf29ce484222325ULL);          // seed through
  EXPECT_EQ(fnv1a_words("shmcaffe", 8), 0xf67107880bbd0322ULL);  // one word
  EXPECT_EQ(fnv1a_words("soft memory box", 15),                  // word + tail
            0xe10bb2779a8e76c3ULL);
}

TEST(SimdChecksum, Fnv1aWordsMatchesReferenceFold) {
  // Independent re-derivation: fold 8-byte little-endian words by shifts
  // (no memcpy), byte-wise tail — must agree for every length.
  const std::vector<float> data = random_floats(257, 0x5EED);
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (const std::size_t len : {0U, 1U, 7U, 8U, 9U, 64U, 1023U}) {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    std::uint64_t expected = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      std::uint64_t word = 0;
      for (int b = 7; b >= 0; --b) word = (word << 8) | bytes[i + static_cast<std::size_t>(b)];
      expected = (expected ^ word) * kPrime;
    }
    for (; i < len; ++i) expected = (expected ^ bytes[i]) * kPrime;
    EXPECT_EQ(fnv1a_words(bytes, len), expected) << "len=" << len;
  }
}

TEST(SimdChecksum, Fnv1aWordsSeedChains) {
  // Chaining two halves through the seed equals hashing the whole buffer —
  // the property the SMB per-chunk incremental refresh relies on.
  const std::vector<float> data = random_floats(64, 0xCAFE);
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t total = data.size() * sizeof(float);
  const std::uint64_t whole = fnv1a_words(bytes, total);
  const std::uint64_t first = fnv1a_words(bytes, 96);
  EXPECT_EQ(fnv1a_words(bytes + 96, total - 96, first), whole);
}

TEST(SimdCores, InPlaceAliasedSpansStayConsistent) {
  // elastic_exchange_core reads `local` and writes both `local` and `delta`;
  // the store order inside a lane must not let the updated local leak into
  // the delta of the same index.  Exercise with delta == a second live
  // buffer while local aliases the input (the trainer's actual shape).
  const std::size_t n = 37;  // odd tail on every tier
  std::vector<float> local = random_floats(n, 0x71);
  const std::vector<float> global = random_floats(n, 0x72);
  const std::vector<float> snapshot = local;
  std::vector<float> delta(n);
  elastic_exchange_core(n, local.data(), global.data(), 0.5F, delta.data());
  for (std::size_t i = 0; i < n; ++i) {
    const float d = 0.5F * (snapshot[i] - global[i]);
    EXPECT_EQ(delta[i], d) << i;
    EXPECT_EQ(local[i], snapshot[i] - d) << i;
  }
}

}  // namespace
}  // namespace shmcaffe::common::simd
