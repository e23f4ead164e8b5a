#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace sketchml::common {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// The KLL compaction phase reads the low bit of NextUint64 in place of
// NextBounded(2): the rejection threshold -2 % 2 is 0, so the first word
// is always taken.
TEST(RngTest, NextBoundedTwoIsTheLowBit) {
  Rng bounded(11), raw(11);
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_EQ(bounded.NextBounded(2), raw.NextUint64() & 1) << i;
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(4);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Uniformity: each bin expects 10000; allow 10 % slack.
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(6);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-1.0));
  EXPECT_TRUE(rng.NextBernoulli(2.0));
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.NextBernoulli(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

class ZipfSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerTest, HeadIsMostPopular) {
  const double alpha = GetParam();
  ZipfSampler zipf(1000, alpha);
  Rng rng(8);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  // Item 0 beats item 100 by roughly (101)^alpha; just require dominance.
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[0], counts[999]);
  // Frequency of item 0 matches the analytic Zipf mass within 20 %.
  double norm = 0.0;
  for (int i = 1; i <= 1000; ++i) norm += 1.0 / std::pow(i, alpha);
  const double expected = 1.0 / norm;
  EXPECT_NEAR(counts[0] / 100000.0, expected, expected * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfSamplerTest,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

TEST(ZipfSamplerTest, SingleItemAlwaysZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

}  // namespace
}  // namespace sketchml::common
