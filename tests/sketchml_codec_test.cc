#include "core/sketchml_codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "common/sparse.h"
#include "sketch/kll_sketch.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/raw_codec.h"
#include "core/sketchml_config.h"
#include "sketch/grouped_min_max_sketch.h"

namespace sketchml::core {
namespace {

common::SparseGradient MakeGradient(size_t count, uint64_t dim, uint64_t seed,
                                    double big_fraction = 0.1) {
  common::Rng rng(seed);
  common::SparseGradient grad;
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(dim));
  for (uint64_t key : keys) {
    const double v = rng.NextBernoulli(1.0 - big_fraction)
                         ? rng.NextGaussian() * 0.01
                         : rng.NextGaussian() * 0.3;
    grad.push_back({key, v});
  }
  return grad;
}

TEST(SketchMlConfigTest, DefaultsAreValid) {
  SketchMlConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.num_buckets, 256);
  EXPECT_EQ(config.num_groups, 8);
  EXPECT_EQ(config.rows, 2);
  EXPECT_DOUBLE_EQ(config.col_ratio, 0.2);
}

TEST(SketchMlConfigTest, RejectsBadValues) {
  SketchMlConfig config;
  config.num_buckets = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.num_buckets = 300;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.num_groups = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.num_groups = 512;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.rows = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.col_ratio = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = SketchMlConfig();
  config.quantile_sketch_k = 2;
  EXPECT_FALSE(config.Validate().ok());
  config.quantile_sketch_k = sketch::KllSketch::kMaxK + 1;
  EXPECT_FALSE(config.Validate().ok());
  config.quantile_sketch_k = sketch::KllSketch::kMaxK;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(SketchMlCodecTest, KeysRoundTripExactly) {
  SketchMlCodec codec;
  const auto grad = MakeGradient(5000, 1 << 24, 179);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(decoded[i].key, grad[i].key) << "key corrupted at " << i;
  }
}

TEST(SketchMlCodecTest, SignsNeverFlip) {
  // §3.3 Problem 1 / Solution 1: with separated positive and negative
  // streams, decoding can shrink magnitudes but never reverse signs.
  SketchMlCodec codec;
  const auto grad = MakeGradient(8000, 1 << 22, 181);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  for (size_t i = 0; i < grad.size(); ++i) {
    if (grad[i].value >= 0) {
      EXPECT_GE(decoded[i].value, 0.0) << "sign flipped at " << i;
    } else {
      EXPECT_LE(decoded[i].value, 0.0) << "sign flipped at " << i;
    }
  }
}

TEST(SketchMlCodecTest, MagnitudesDecayTowardZeroNeverAmplifyBeyondBucket) {
  // MinMax decoding returns a bucket index <= the inserted one, so the
  // decoded magnitude is at most the quantized magnitude of the original
  // value — which itself is at most one bucket above the true value.
  SketchMlConfig config;
  config.num_buckets = 256;
  SketchMlCodec codec(config);
  const auto grad = MakeGradient(6000, 1 << 22, 191);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());

  double max_abs = 0.0;
  for (const auto& p : grad) max_abs = std::max(max_abs, std::abs(p.value));
  for (size_t i = 0; i < grad.size(); ++i) {
    // Decoded magnitude never exceeds the global max magnitude (no
    // amplification past the largest bucket mean).
    EXPECT_LE(std::abs(decoded[i].value), max_abs + 1e-12);
  }
}

TEST(SketchMlCodecTest, CompressionRateBeatsRawByFactorFive) {
  // Figure 8(b): SketchML compresses LR gradients ~7x vs raw 12d bytes.
  // The paper's 1.27-bytes-per-key regime needs d/D > r/256 (Appendix
  // A.3), i.e. gradients at a few percent density — use d/D ≈ 4 %.
  SketchMlCodec codec;
  const auto grad = MakeGradient(40000, 1 << 19, 193);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  const double raw_bytes = static_cast<double>(grad.size()) * 12.0;
  const double rate = raw_bytes / static_cast<double>(msg.size());
  EXPECT_GT(rate, 5.0) << "compression rate only " << rate;
}

TEST(SketchMlCodecTest, VerySparseGradientsStillBeatRawByFactorThree) {
  // At d/D ≈ 0.1 % the per-group deltas grow to ~2 bytes (A.3's
  // log2(rD/d)/8 term) and the rate drops but stays well above raw.
  SketchMlCodec codec;
  const auto grad = MakeGradient(20000, 1 << 24, 194);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  const double rate =
      static_cast<double>(grad.size()) * 12.0 / static_cast<double>(msg.size());
  EXPECT_GT(rate, 3.0) << "compression rate only " << rate;
}

TEST(SketchMlCodecTest, SpaceCostBreakdownSumsToMessageSize) {
  SketchMlCodec codec;
  const auto grad = MakeGradient(5000, 1 << 22, 197);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  const SpaceCost& cost = codec.last_space_cost();
  // Everything except the per-stream count varints is attributed; allow
  // a few bytes of slack for those.
  EXPECT_LE(cost.Total(), msg.size());
  EXPECT_GE(cost.Total() + 16, msg.size());
  EXPECT_GT(cost.key_bytes, 0u);
  EXPECT_GT(cost.sketch_bytes, 0u);
  EXPECT_GT(cost.bucket_mean_bytes, 0u);
}

TEST(SketchMlCodecTest, ValueErrorBoundedByGroupRange) {
  // With grouping, a decoded index stays in the true index's group, so
  // the decoded value is at least the group's smallest mean.
  SketchMlConfig config;
  config.num_buckets = 256;
  config.num_groups = 8;
  SketchMlCodec codec(config);
  const auto grad = MakeGradient(10000, 1 << 22, 199);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());

  // Relative check: decoded magnitude within the quantized value's group
  // implies |decoded| <= |original quantized| and both share sign; verify
  // the aggregate relative L2 error is moderate.
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < grad.size(); ++i) {
    num += std::pow(grad[i].value - decoded[i].value, 2);
    den += std::pow(grad[i].value, 2);
  }
  EXPECT_LT(num / den, 0.9);  // Far from total information loss.
}

TEST(SketchMlCodecTest, EmptyGradient) {
  SketchMlCodec codec;
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode({}, &msg).ok());
  common::SparseGradient decoded = {{1, 1.0}};
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(SketchMlCodecTest, AllPositiveGradient) {
  SketchMlCodec codec;
  common::SparseGradient grad;
  common::Rng rng(211);
  for (uint64_t i = 0; i < 1000; ++i) {
    grad.push_back({i * 3, std::abs(rng.NextGaussian()) + 1e-6});
  }
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (const auto& p : decoded) EXPECT_GE(p.value, 0.0);
}

TEST(SketchMlCodecTest, AllNegativeGradient) {
  SketchMlCodec codec;
  common::SparseGradient grad;
  common::Rng rng(223);
  for (uint64_t i = 0; i < 1000; ++i) {
    grad.push_back({i * 7 + 2, -std::abs(rng.NextGaussian()) - 1e-6});
  }
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (const auto& p : decoded) EXPECT_LE(p.value, 0.0);
}

TEST(SketchMlCodecTest, SingleElementGradient) {
  SketchMlCodec codec;
  common::SparseGradient grad = {{42, -0.125}};
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, 42u);
  EXPECT_NEAR(decoded[0].value, -0.125, 1e-9);
}

// Decode orders the per-group key runs of both sign streams (up to 2×G
// sorted runs) instead of sorting them: by rank placement when the key
// span is dense (dim = 2 × count), by a pairwise merge when it is not
// (dim = 2^20). Every run shape must come out strictly increasing and
// equal to the sent keys on both paths.
TEST(SketchMlCodecTest, DecodedKeysStrictlyIncreaseForEveryRunShape) {
  for (const int groups : {1, 8}) {
    for (const int sign : {+1, -1, 0}) {  // All positive/negative, mixed.
      for (const size_t count : {size_t{1}, size_t{60}, size_t{4000}}) {
        for (const uint64_t dim : {uint64_t{1} << 20, 2 * count}) {
          SketchMlConfig config;
          config.num_groups = groups;
          config.seed = 500 + count;
          SketchMlCodec codec(config);
          common::SparseGradient grad =
              MakeGradient(count, dim, 600 + count * 3 + groups);
          if (sign != 0) {
            for (auto& pair : grad) {
              pair.value = sign * (std::abs(pair.value) + 1e-9);
            }
          }
          compress::EncodedGradient msg;
          ASSERT_TRUE(codec.Encode(grad, &msg).ok());
          common::SparseGradient decoded;
          ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
          EXPECT_TRUE(common::IsSortedByKey(decoded))
              << "groups=" << groups << " sign=" << sign
              << " count=" << count << " dim=" << dim;
          EXPECT_EQ(common::Keys(decoded), common::Keys(grad));
        }
      }
    }
  }
}

// A SketchML message built by hand: `pos_groups` key lists in the
// positive stream, `neg_groups` in the negative one, two buckets per
// stream. Decode must reject a key that two groups or streams share.
compress::EncodedGradient HandMadeSketchMl(
    const std::vector<std::vector<uint64_t>>& pos_groups,
    const std::vector<std::vector<uint64_t>>& neg_groups) {
  common::ByteWriter writer;
  size_t total = 0;
  for (const auto& g : pos_groups) total += g.size();
  for (const auto& g : neg_groups) total += g.size();
  writer.WriteU8(1);  // Wire version.
  writer.WriteVarint(total);
  for (const auto* groups : {&pos_groups, &neg_groups}) {
    size_t count = 0;
    for (const auto& g : *groups) count += g.size();
    writer.WriteVarint(count);
    if (count == 0) continue;
    writer.WriteVarint(2);  // Bucket means.
    writer.WriteFloat(0.25f);
    writer.WriteFloat(0.5f);
    sketch::GroupedMinMaxSketch(2, static_cast<int>(groups->size()), 1, 4)
        .Serialize(&writer);
    for (const auto& keys : *groups) {
      EXPECT_TRUE(compress::DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
    }
  }
  compress::EncodedGradient msg;
  msg.bytes = writer.TakeBuffer();
  return msg;
}

TEST(SketchMlCodecTest, DecodeRejectsAKeyRepeatedAcrossGroupsOrStreams) {
  SketchMlCodec codec;
  common::SparseGradient decoded;
  // Controls: the same shapes with distinct keys decode, in key order.
  ASSERT_TRUE(codec.Decode(HandMadeSketchMl({{1, 5}, {6, 9}}, {}), &decoded)
                  .ok());
  EXPECT_EQ(common::Keys(decoded), (std::vector<uint64_t>{1, 5, 6, 9}));
  ASSERT_TRUE(codec.Decode(HandMadeSketchMl({{1, 5}}, {{3}}), &decoded).ok());
  EXPECT_EQ(common::Keys(decoded), (std::vector<uint64_t>{1, 3, 5}));

  // Key 5 in two groups of one stream, then in both streams; both on a
  // dense key span (placement) and a sparse one (merge).
  for (const uint64_t top : {uint64_t{9}, uint64_t{1} << 20}) {
    EXPECT_EQ(codec.Decode(HandMadeSketchMl({{1, 5}, {5, top}}, {}), &decoded)
                  .code(),
              common::StatusCode::kCorruptedData)
        << "top " << top;
    EXPECT_EQ(
        codec.Decode(HandMadeSketchMl({{1, 5, top}}, {{5}}), &decoded).code(),
        common::StatusCode::kCorruptedData)
        << "top " << top;
  }
}

TEST(SketchMlCodecTest, RejectsUnsortedInput) {
  SketchMlCodec codec;
  compress::EncodedGradient msg;
  common::SparseGradient bad = {{9, 1.0}, {3, 2.0}};
  EXPECT_EQ(codec.Encode(bad, &msg).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SketchMlCodecTest, DecodeRejectsCorruption) {
  SketchMlCodec codec;
  const auto grad = MakeGradient(500, 1 << 18, 227);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;

  auto truncated = msg;
  truncated.bytes.resize(truncated.bytes.size() / 3);
  EXPECT_FALSE(codec.Decode(truncated, &decoded).ok());

  auto bad_version = msg;
  bad_version.bytes[0] = 0x7e;
  EXPECT_FALSE(codec.Decode(bad_version, &decoded).ok());

  compress::EncodedGradient empty;
  EXPECT_FALSE(codec.Decode(empty, &decoded).ok());
}

TEST(SketchMlCodecTest, WithoutSignSeparationSignsCanFlip) {
  // Ablation of §3.3 Problem 1: quantizing both signs together makes the
  // min-insert strategy walk decoded values toward the most negative
  // bucket, producing reversed gradients for some positive inputs.
  SketchMlConfig config;
  config.separate_signs = false;
  config.col_ratio = 0.05;  // Aggressive compression: many collisions.
  SketchMlCodec codec(config);
  const auto grad = MakeGradient(20000, 1 << 22, 229, 0.5);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  int flipped = 0;
  for (size_t i = 0; i < grad.size(); ++i) {
    if (grad[i].value > 1e-6 && decoded[i].value < -1e-9) ++flipped;
  }
  EXPECT_GT(flipped, 0) << "expected reversed gradients without separation";
}

class SketchMlConfigSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(SketchMlConfigSweepTest, RoundTripsAcrossConfigs) {
  const auto [buckets, groups, rows, col_ratio] = GetParam();
  SketchMlConfig config;
  config.num_buckets = buckets;
  config.num_groups = groups;
  config.rows = rows;
  config.col_ratio = col_ratio;
  ASSERT_TRUE(config.Validate().ok());
  SketchMlCodec codec(config);
  const auto grad = MakeGradient(3000, 1 << 20,
                                 1000 + buckets + groups + rows);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(decoded[i].key, grad[i].key);
    EXPECT_EQ(decoded[i].value >= 0, grad[i].value >= 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SketchMlConfigSweepTest,
    ::testing::Values(std::make_tuple(256, 8, 2, 0.2),
                      std::make_tuple(128, 8, 2, 0.2),
                      std::make_tuple(256, 16, 4, 0.5),
                      std::make_tuple(256, 1, 2, 0.2),
                      std::make_tuple(64, 4, 1, 0.1),
                      std::make_tuple(16, 2, 3, 1.0),
                      std::make_tuple(2, 1, 1, 0.2)));

TEST(SketchMlCodecTest, LargerColumnBudgetReducesError) {
  // Figure 13 "Number of Sketch Col": d/2 columns beat d/5.
  const auto grad = MakeGradient(20000, 1 << 22, 233);
  double errs[2];
  int idx = 0;
  for (double ratio : {0.2, 0.5}) {
    SketchMlConfig config;
    config.col_ratio = ratio;
    SketchMlCodec codec(config);
    compress::EncodedGradient msg;
    ASSERT_TRUE(codec.Encode(grad, &msg).ok());
    common::SparseGradient decoded;
    ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
    double err = 0.0;
    for (size_t i = 0; i < grad.size(); ++i) {
      err += std::pow(grad[i].value - decoded[i].value, 2);
    }
    errs[idx++] = err;
  }
  EXPECT_LT(errs[1], errs[0]);
}

TEST(SketchMlCodecTest, MoreGroupsReduceError) {
  // §3.3 Solution 2: grouping caps the index error at q/r.
  const auto grad = MakeGradient(20000, 1 << 22, 239);
  double errs[2];
  int idx = 0;
  for (int groups : {1, 16}) {
    SketchMlConfig config;
    config.num_groups = groups;
    config.col_ratio = 0.1;
    SketchMlCodec codec(config);
    compress::EncodedGradient msg;
    ASSERT_TRUE(codec.Encode(grad, &msg).ok());
    common::SparseGradient decoded;
    ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
    double err = 0.0;
    for (size_t i = 0; i < grad.size(); ++i) {
      err += std::pow(grad[i].value - decoded[i].value, 2);
    }
    errs[idx++] = err;
  }
  EXPECT_LT(errs[1], errs[0]);
}

TEST(KeyOnlyCodecTest, LosslessRoundTrip) {
  KeyOnlyCodec codec;
  const auto grad = MakeGradient(4000, 1 << 18, 241);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_EQ(decoded, grad);
  // ~1.3 + 8 bytes/pair, below raw 12.
  EXPECT_LT(msg.size(), grad.size() * 10);
}

TEST(QuantileOnlyCodecTest, KeysExactValuesQuantized) {
  QuantileOnlyCodec codec;
  const auto grad = MakeGradient(4000, 1 << 24, 251);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(decoded[i].key, grad[i].key);
    EXPECT_EQ(decoded[i].value >= 0, grad[i].value >= 0);
  }
  // Quantile-only has *no* sketch decay: relative error is small.
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < grad.size(); ++i) {
    num += std::pow(grad[i].value - decoded[i].value, 2);
    den += std::pow(grad[i].value, 2);
  }
  EXPECT_LT(num / den, 0.05);
}

TEST(QuantileOnlyCodecTest, DecodeRejectsAKeyRepeatedAcrossStreams) {
  // Version 1, then each stream: count, one bucket mean, its keys, and a
  // bucket byte per key.
  const auto message = [](const std::vector<uint64_t>& pos,
                          const std::vector<uint64_t>& neg) {
    common::ByteWriter writer;
    writer.WriteU8(1);
    for (const auto* keys : {&pos, &neg}) {
      writer.WriteVarint(keys->size());
      if (keys->empty()) continue;
      writer.WriteVarint(1);
      writer.WriteFloat(0.5f);
      EXPECT_TRUE(compress::DeltaBinaryKeyCodec::Encode(*keys, &writer).ok());
      for (size_t i = 0; i < keys->size(); ++i) writer.WriteU8(0);
    }
    compress::EncodedGradient msg;
    msg.bytes = writer.TakeBuffer();
    return msg;
  };
  QuantileOnlyCodec codec;
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(message({1, 4}, {3}), &decoded).ok());
  EXPECT_EQ(decoded, (common::SparseGradient{{1, 0.5}, {3, -0.5}, {4, 0.5}}));
  EXPECT_EQ(codec.Decode(message({1, 3}, {3}), &decoded).code(),
            common::StatusCode::kCorruptedData);
  EXPECT_EQ(codec.Decode(message({1, 3, 1 << 20}, {3}), &decoded).code(),
            common::StatusCode::kCorruptedData);
}

TEST(QuantileOnlyCodecTest, SmallerThanKeyOnlyLargerThanFull) {
  // Figure 8(b) ordering: Adam > Adam+Key > Adam+Key+Quan > full SketchML.
  const auto grad = MakeGradient(30000, 1 << 24, 257);
  compress::RawCodec raw;
  KeyOnlyCodec key_only;
  QuantileOnlyCodec quan;
  SketchMlCodec full;
  compress::EncodedGradient m_raw, m_key, m_quan, m_full;
  ASSERT_TRUE(raw.Encode(grad, &m_raw).ok());
  ASSERT_TRUE(key_only.Encode(grad, &m_key).ok());
  ASSERT_TRUE(quan.Encode(grad, &m_quan).ok());
  ASSERT_TRUE(full.Encode(grad, &m_full).ok());
  EXPECT_GT(m_raw.size(), m_key.size());
  EXPECT_GT(m_key.size(), m_quan.size());
  EXPECT_GT(m_quan.size(), m_full.size());
}

TEST(QuantileOnlyCodecTest, RejectsConfigsWhoseBucketsOverflowOneByte) {
  // Regression: the wire format stores each bucket index as a uint8_t.
  // A config that could produce more than 256 buckets used to truncate
  // indexes silently; Encode must reject it instead.
  SketchMlConfig config;
  config.num_buckets = 512;
  QuantileOnlyCodec codec(config);
  const auto grad = MakeGradient(4000, 1 << 24, 263);
  compress::EncodedGradient msg;
  const common::Status status = codec.Encode(grad, &msg);
  EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_TRUE(msg.bytes.empty());  // Nothing partially written.
}

TEST(QuantileOnlyCodecTest, ValidBoundaryBucketCountStillRoundTrips) {
  // 256 buckets is the largest count that fits one byte — must still
  // encode, decode, and reproduce every key.
  SketchMlConfig config;
  config.num_buckets = 256;
  QuantileOnlyCodec codec(config);
  const auto grad = MakeGradient(4000, 1 << 24, 269);
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(decoded[i].key, grad[i].key);
  }
}

}  // namespace
}  // namespace sketchml::core
