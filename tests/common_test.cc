// Tests for the common utilities: RNG determinism and distribution sanity,
// statistics, formatting, units.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace shmcaffe::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent(7);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  Rng child1_again = Rng(7).fork(1);
  EXPECT_EQ(child1.next_u64(), child1_again.next_u64());
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, UniformIntCoversAllValuesInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, UniformRealInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(9);
  SampleSet stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(SampleSet, QuantilesInterpolate) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0 / 3.0), 2.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Units, TransferTimeRoundsUp) {
  using namespace units;
  EXPECT_EQ(transfer_time(1, 1e9), 1);            // 1 byte at 1 GB/s = 1 ns
  EXPECT_EQ(transfer_time(1000, 1e9), 1000);      // 1 KB at 1 GB/s = 1 us
  EXPECT_GE(transfer_time(1, 3e9), 1);            // sub-ns rounds up to 1 ns
  EXPECT_EQ(transfer_time(0, 1e9), 0);
}

TEST(Units, SecondsRoundTrip) {
  using namespace units;
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
  EXPECT_EQ(from_millis(0.5), 500'000);
}

TEST(Strings, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(6.7e9), "6.70 GB/s");
  EXPECT_EQ(format_bandwidth(1.5e6), "1.5 MB/s");
  EXPECT_EQ(format_bandwidth(12.0), "12 B/s");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(214'000'000), "214.0 MB");
  EXPECT_EQ(format_bytes(1'000'000'000), "1.00 GB");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(Strings, FormatDuration) {
  using namespace units;
  EXPECT_EQ(format_duration(from_millis(257.3)), "257.3 ms");
  EXPECT_EQ(format_duration(2 * kSecond), "2.00 s");
  EXPECT_EQ(format_duration(47 * kMicrosecond), "47.0 us");
}

TEST(Strings, FormatHoursMinutesMatchesPaperStyle) {
  using namespace units;
  // Paper's Table II reports Caffe 1-GPU training time as 22:59.
  const SimTime t = 22 * 60 * 60 * kSecond + 59 * 60 * kSecond;
  EXPECT_EQ(format_hours_minutes(t), "22:59");
  EXPECT_EQ(format_hours_minutes(90 * 60 * kSecond), "1:30");
}

TEST(Strings, FormatFixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(10.0, 1), "10.0");
  EXPECT_EQ(format_percent(0.263), "26.3%");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"model", "time"});
  t.add_row({"vgg16", "727.7 ms"});
  t.add_row({"inception_v1", "90 ms"});
  const std::string out = t.render();
  EXPECT_NE(out.find("model         time"), std::string::npos);
  EXPECT_NE(out.find("vgg16         727.7 ms"), std::string::npos);
  EXPECT_NE(out.find("inception_v1  90 ms"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW({ (void)t.render(); });
}

}  // namespace
}  // namespace shmcaffe::common
