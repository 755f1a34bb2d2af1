#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace bds::util {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 0 from the canonical splitmix64.c.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64_next(state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expected = double(kDraws) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(Rng, NextInCoversInclusiveRange) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, NextDoubleRangeRespectsBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double(-2.5, 4.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 4.5);
  }
}

TEST(Rng, NextBoolExtremes) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
    EXPECT_FALSE(rng.next_bool(-1.0));
    EXPECT_TRUE(rng.next_bool(2.0));
  }
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kTrials = 50'000;
  for (int i = 0; i < kTrials; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(double(hits) / kTrials, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  EXPECT_NE(child1.state(), child2.state());
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child1.next_u64() == child2.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(55), b(55);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleHandlesDegenerateSizes) {
  Rng rng(39);
  std::vector<int> empty;
  rng.shuffle(std::span<int>(empty));
  std::vector<int> one{7};
  rng.shuffle(std::span<int>(one));
  EXPECT_EQ(one[0], 7);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(41);
  for (const auto& [n, k] : {std::pair<std::uint64_t, std::uint64_t>{100, 5},
                             {100, 50},
                             {100, 100},
                             {1'000'000, 10}}) {
    const auto sample = rng.sample_without_replacement(n, k);
    ASSERT_EQ(sample.size(), k);
    std::set<std::uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (const auto v : sample) EXPECT_LT(v, n);
  }
}

TEST(Rng, SampleWithoutReplacementZero) {
  Rng rng(43);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
}

TEST(Rng, SampleWithoutReplacementIsUniformish) {
  // Each of 10 elements should appear in a size-5 sample with p = 0.5.
  Rng rng(47);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 20'000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto v : rng.sample_without_replacement(10, 5)) ++counts[v];
  }
  for (const int c : counts) {
    EXPECT_NEAR(double(c) / kTrials, 0.5, 0.02);
  }
}

TEST(Mix64, InjectiveOnSmallDomain) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10'000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10'000u);
}

}  // namespace
}  // namespace bds::util
