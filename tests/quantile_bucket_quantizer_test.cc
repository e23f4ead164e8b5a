#include "compress/quantile_bucket_quantizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"

namespace sketchml::compress {
namespace {

std::vector<double> SkewedGradientValues(size_t n, uint64_t seed) {
  // Mimic Figure 4: most values tiny, a few large.
  common::Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(rng.NextBernoulli(0.95) ? rng.NextGaussian() * 0.01
                                             : rng.NextGaussian() * 0.3);
  }
  return values;
}

TEST(QuantileBucketQuantizerTest, PaperFigure3Example) {
  // Splits {-0.3, -0.1, 0, 0.1, 0.3} -> means {-0.2, -0.05, 0.05, 0.2}.
  QuantileBucketQuantizer quantizer({-0.3, -0.1, 0.0, 0.1, 0.3});
  ASSERT_EQ(quantizer.num_buckets(), 4);
  EXPECT_DOUBLE_EQ(quantizer.MeanOf(0), -0.2);
  EXPECT_DOUBLE_EQ(quantizer.MeanOf(1), -0.05);
  EXPECT_DOUBLE_EQ(quantizer.MeanOf(2), 0.05);
  EXPECT_DOUBLE_EQ(quantizer.MeanOf(3), 0.2);
  // The paper's worked values: 0.21 -> bucket 3, -0.01 -> bucket 1, etc.
  EXPECT_EQ(quantizer.BucketOf(0.21), 3);
  EXPECT_EQ(quantizer.BucketOf(-0.01), 1);
  EXPECT_EQ(quantizer.BucketOf(0.08), 2);
  EXPECT_EQ(quantizer.BucketOf(-0.05), 1);
  EXPECT_EQ(quantizer.BucketOf(-0.12), 0);
  EXPECT_EQ(quantizer.BucketOf(0.29), 3);
  EXPECT_EQ(quantizer.BucketOf(0.02), 2);
  EXPECT_EQ(quantizer.BucketOf(-0.27), 0);
}

TEST(QuantileBucketQuantizerTest, OutOfRangeValuesClampToEdgeBuckets) {
  QuantileBucketQuantizer quantizer({0.0, 1.0, 2.0});
  EXPECT_EQ(quantizer.BucketOf(-5.0), 0);
  EXPECT_EQ(quantizer.BucketOf(99.0), 1);
  EXPECT_EQ(quantizer.BucketOf(2.0), 1);  // Max is closed above.
}

TEST(QuantileBucketQuantizerTest, BucketsHaveEqualPopulation) {
  const auto values = SkewedGradientValues(50000, 109);
  const int q = 64;
  auto quantizer = QuantileBucketQuantizer::Build(values, q, 256);
  std::vector<int> counts(q, 0);
  for (double v : values) ++counts[quantizer.BucketOf(v)];
  const double expected = static_cast<double>(values.size()) / q;
  int within = 0;
  for (int c : counts) {
    if (std::abs(c - expected) < expected * 0.5) ++within;
  }
  // Equal-depth property: the vast majority of buckets near d/q items.
  EXPECT_GT(within, q * 3 / 4);
}

TEST(QuantileBucketQuantizerTest, QuantizeIsIdempotent) {
  const auto values = SkewedGradientValues(10000, 113);
  auto quantizer = QuantileBucketQuantizer::Build(values, 32);
  for (double v : {-0.5, -0.01, 0.0, 0.003, 0.2}) {
    const double once = quantizer.Quantize(v);
    // A bucket mean may fall into a neighboring bucket (means are not
    // fixed points in general), but quantizing twice must be stable in
    // value distance.
    const double twice = quantizer.Quantize(once);
    EXPECT_LE(std::abs(twice - once), std::abs(once - v) + 1e-12);
  }
}

TEST(QuantileBucketQuantizerTest, VarianceBoundTheoremA2) {
  // Theorem A.2: E||g - g~||^2 <= d/(4q) * (phi_min^2 + phi_max^2).
  for (int q : {16, 64, 256}) {
    const auto values = SkewedGradientValues(20000, 127 + q);
    auto quantizer = QuantileBucketQuantizer::Build(values, q, 512);
    double err = 0.0;
    double lo = values[0], hi = values[0];
    for (double v : values) {
      const double diff = v - quantizer.Quantize(v);
      err += diff * diff;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double bound =
        static_cast<double>(values.size()) / (4.0 * q) * (lo * lo + hi * hi);
    EXPECT_LE(err, bound) << "q=" << q;
  }
}

TEST(QuantileBucketQuantizerTest, QuantileBeatsUniformOnNearZeroMass) {
  // The motivating claim of §3.2: uniform (equal-width) buckets waste all
  // their resolution on the sparse tails, so the near-zero bulk of the
  // gradient distribution — the values that matter near convergence — is
  // quantized with error larger than the values themselves. Equal-depth
  // buckets concentrate resolution where the mass is.
  const auto values = SkewedGradientValues(30000, 131);
  const int q = 32;
  auto quantile = QuantileBucketQuantizer::Build(values, q, 512);

  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  std::vector<double> uniform_splits;
  for (int i = 0; i <= q; ++i) {
    uniform_splits.push_back(*lo_it + (*hi_it - *lo_it) * i / q);
  }
  QuantileBucketQuantizer uniform(uniform_splits);

  // Median/p90 absolute error over the 95 % near-zero mass (|v| < 0.03).
  // (The L2 *sum* is dominated by the edge buckets, which both schemes
  // resolve poorly; the typical value is what drives SGD convergence.)
  std::vector<double> err_quantile, err_uniform;
  for (double v : values) {
    if (std::abs(v) >= 0.03) continue;
    err_quantile.push_back(std::abs(v - quantile.Quantize(v)));
    err_uniform.push_back(std::abs(v - uniform.Quantize(v)));
  }
  ASSERT_GT(err_quantile.size(), values.size() / 2);
  std::sort(err_quantile.begin(), err_quantile.end());
  std::sort(err_uniform.begin(), err_uniform.end());
  const size_t mid = err_quantile.size() / 2;
  const size_t p90 = err_quantile.size() * 9 / 10;
  EXPECT_LT(err_quantile[mid], err_uniform[mid] / 10);
  EXPECT_LT(err_quantile[p90], err_uniform[p90] / 10);
}

TEST(QuantileBucketQuantizerTest, ConstantValuesCollapseGracefully) {
  std::vector<double> values(100, 0.25);
  auto quantizer = QuantileBucketQuantizer::Build(values, 8);
  EXPECT_DOUBLE_EQ(quantizer.Quantize(0.25), 0.25);
}

TEST(QuantileBucketQuantizerTest, SingleValueStream) {
  const std::vector<double> values = {1.5};
  auto quantizer = QuantileBucketQuantizer::Build(values, 4);
  const int bucket = quantizer.BucketOf(1.5);
  EXPECT_GE(bucket, 0);
  EXPECT_LT(bucket, 4);
  EXPECT_DOUBLE_EQ(quantizer.Quantize(1.5), 1.5);
}

TEST(QuantileBucketQuantizerTest, MeansSerializationRoundTrips) {
  const auto values = SkewedGradientValues(5000, 137);
  auto quantizer = QuantileBucketQuantizer::Build(values, 16);
  common::ByteWriter writer;
  quantizer.SerializeMeans(&writer);
  // 16 means * 4 bytes (float32) + varint count.
  EXPECT_EQ(writer.size(), 16u * 4u + 1u);

  common::ByteReader reader(writer.buffer());
  QuantileBucketQuantizer restored({0.0, 1.0});
  ASSERT_TRUE(
      QuantileBucketQuantizer::DeserializeMeans(&reader, &restored).ok());
  ASSERT_EQ(restored.num_buckets(), 16);
  for (int b = 0; b < 16; ++b) {
    EXPECT_EQ(restored.MeanOf(b),
              static_cast<double>(static_cast<float>(quantizer.MeanOf(b))));
  }
}

TEST(QuantileBucketQuantizerTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {0x00};  // Count 0 is invalid.
  common::ByteReader reader(junk.data(), junk.size());
  QuantileBucketQuantizer out({0.0, 1.0});
  EXPECT_FALSE(QuantileBucketQuantizer::DeserializeMeans(&reader, &out).ok());
}

TEST(QuantileBucketQuantizerTest, RejectsUnsortedSplits) {
  EXPECT_DEATH(QuantileBucketQuantizer({1.0, 0.0}), "");
}

}  // namespace
}  // namespace sketchml::compress
