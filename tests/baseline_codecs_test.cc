#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/sparse.h"
#include "compress/one_bit_codec.h"
#include "compress/raw_codec.h"
#include "compress/zipml_codec.h"
#include "core/codec_factory.h"

namespace sketchml::compress {
namespace {

common::SparseGradient MakeGradient(size_t count, uint64_t dim,
                                    uint64_t seed) {
  common::Rng rng(seed);
  common::SparseGradient grad;
  uint64_t key = rng.NextBounded(dim / (count + 1) + 1);
  for (size_t i = 0; i < count; ++i) {
    const double v = rng.NextBernoulli(0.9) ? rng.NextGaussian() * 0.01
                                            : rng.NextGaussian() * 0.3;
    grad.push_back({key, v});
    key += 1 + rng.NextBounded(dim / count + 1);
  }
  return grad;
}

TEST(RawCodecTest, DoubleRoundTripsLosslessly) {
  RawCodec codec(ValueType::kDouble);
  const auto grad = MakeGradient(1000, 1 << 20, 139);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_EQ(decoded, grad);
  // 1 type byte + varint count + 12 bytes per pair.
  EXPECT_GE(msg.size(), grad.size() * 12);
}

TEST(RawCodecTest, FloatLosesOnlyFloatPrecision) {
  RawCodec codec(ValueType::kFloat);
  const auto grad = MakeGradient(500, 1 << 20, 149);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(decoded[i].key, grad[i].key);
    EXPECT_EQ(decoded[i].value, static_cast<float>(grad[i].value));
  }
}

TEST(RawCodecTest, RejectsUnsortedInput) {
  RawCodec codec;
  EncodedGradient msg;
  common::SparseGradient bad = {{5, 1.0}, {3, 2.0}};
  EXPECT_EQ(codec.Encode(bad, &msg).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(RawCodecTest, EmptyGradient) {
  RawCodec codec;
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode({}, &msg).ok());
  common::SparseGradient decoded = {{1, 1.0}};
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(RawCodecTest, DecodeRejectsTruncation) {
  RawCodec codec;
  const auto grad = MakeGradient(100, 1 << 16, 151);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  msg.bytes.resize(msg.bytes.size() - 4);
  common::SparseGradient decoded;
  EXPECT_FALSE(codec.Decode(msg, &decoded).ok());
}

// The raw-key formats store keys as plain u32s, so nothing but the
// decoder keeps a damaged message from yielding keys out of order.
TEST(RawCodecTest, DecodeRejectsKeysOutOfOrder) {
  RawCodec codec(ValueType::kDouble);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode({{1, 0.5}, {7, -0.5}}, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  // Type byte, count byte, then the two u32 keys: swap them, then repeat
  // the first.
  EncodedGradient swapped = msg;
  std::swap_ranges(swapped.bytes.begin() + 2, swapped.bytes.begin() + 6,
                   swapped.bytes.begin() + 6);
  EXPECT_EQ(codec.Decode(swapped, &decoded).code(),
            common::StatusCode::kCorruptedData);
  EncodedGradient repeated = msg;
  std::copy(repeated.bytes.begin() + 2, repeated.bytes.begin() + 6,
            repeated.bytes.begin() + 6);
  EXPECT_EQ(codec.Decode(repeated, &decoded).code(),
            common::StatusCode::kCorruptedData);
}

class ZipMlBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(ZipMlBitsTest, KeysExactValuesWithinOneStep) {
  const int bits = GetParam();
  ZipMlCodec codec(bits);
  const auto grad = MakeGradient(2000, 1 << 22, 157);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), grad.size());

  double lo = grad[0].value, hi = grad[0].value;
  for (const auto& p : grad) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  const double step = (hi - lo) / ((1 << bits) - 1);
  for (size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(decoded[i].key, grad[i].key);
    // Stochastic rounding lands on one of the two adjacent levels.
    EXPECT_LE(std::abs(decoded[i].value - grad[i].value), step + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ZipMlBitsTest, ::testing::Values(8, 16));

TEST(ZipMlCodecTest, StochasticRoundingIsUnbiased) {
  ZipMlCodec codec(8, /*seed=*/3);
  // A value strictly between grid levels, encoded many times.
  common::SparseGradient grad;
  for (uint64_t i = 0; i < 4096; ++i) grad.push_back({i, 0.101});
  grad.push_back({999999, -1.0});  // Pin the range to [-1, 1].
  grad.push_back({1000000, 1.0});
  double sum = 0.0;
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  for (size_t i = 0; i + 2 < decoded.size(); ++i) sum += decoded[i].value;
  EXPECT_NEAR(sum / 4096, 0.101, 0.002);
}

TEST(ZipMlCodecTest, UniformGridCollapsesSmallGradients) {
  // The §4.3 failure mode: with one large outlier, near-zero values all
  // map to the same level — information lost.
  ZipMlCodec codec(8, 5, /*stochastic_rounding=*/false);
  common::SparseGradient grad;
  common::Rng rng(163);
  for (uint64_t i = 0; i < 1000; ++i) {
    grad.push_back({i, rng.NextUniform(-1e-4, 1e-4)});
  }
  grad.push_back({2000, 1.0});  // Outlier stretches the range.
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  std::set<double> distinct;
  for (size_t i = 0; i < 1000; ++i) distinct.insert(decoded[i].value);
  EXPECT_LE(distinct.size(), 2u);  // All tiny values collapse.
}

TEST(ZipMlCodecTest, ConstantValuesRoundTripExactly) {
  ZipMlCodec codec(8);
  common::SparseGradient grad = {{1, 0.5}, {2, 0.5}, {3, 0.5}};
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  for (const auto& p : decoded) EXPECT_DOUBLE_EQ(p.value, 0.5);
}

TEST(ZipMlCodecTest, RejectsUnsupportedBitWidth) {
  EXPECT_DEATH(ZipMlCodec(12), "");
}

TEST(OneBitCodecTest, ReconstructsSignTimesMeanMagnitude) {
  OneBitCodec codec;
  common::SparseGradient grad = {{1, 0.2}, {2, -0.4}, {3, 0.6}, {4, -0.2}};
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_DOUBLE_EQ(decoded[0].value, 0.4);   // Mean of {0.2, 0.6}.
  EXPECT_DOUBLE_EQ(decoded[1].value, -0.3);  // -Mean of {0.4, 0.2}.
  EXPECT_DOUBLE_EQ(decoded[2].value, 0.4);
  EXPECT_DOUBLE_EQ(decoded[3].value, -0.3);
}

TEST(OneBitCodecTest, SignsAlwaysPreserved) {
  OneBitCodec codec;
  const auto grad = MakeGradient(3000, 1 << 20, 167);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  for (size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(decoded[i].value >= 0, grad[i].value >= 0);
  }
  // ~4 + 1/8 bytes per pair; far below raw 12.
  EXPECT_LT(msg.size(), grad.size() * 5 + 32);
}

TEST(OneBitCodecTest, AllPositiveValues) {
  OneBitCodec codec;
  common::SparseGradient grad = {{1, 1.0}, {5, 3.0}};
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_DOUBLE_EQ(decoded[0].value, 2.0);
  EXPECT_DOUBLE_EQ(decoded[1].value, 2.0);
}

TEST(CodecFactoryTest, BuildsEveryKnownCodec) {
  for (const auto& name : core::KnownCodecNames()) {
    auto result = core::MakeCodec(name);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ((*result)->Name(), name);
  }
}

TEST(CodecFactoryTest, UnknownNameFails) {
  auto result = core::MakeCodec("gzip");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kNotFound);
}

TEST(CodecFactoryTest, AllCodecsRoundTripKeysExactly) {
  const auto grad = MakeGradient(800, 1 << 24, 173);
  for (const auto& name : core::KnownCodecNames()) {
    auto codec = std::move(core::MakeCodec(name)).value();
    EncodedGradient msg;
    ASSERT_TRUE(codec->Encode(grad, &msg).ok()) << name;
    common::SparseGradient decoded;
    ASSERT_TRUE(codec->Decode(msg, &decoded).ok()) << name;
    ASSERT_EQ(decoded.size(), grad.size()) << name;
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(decoded[i].key, grad[i].key)
          << name << " corrupted key at " << i;
    }
  }
}

// The Encode contract: NaN, +inf and -inf are InvalidArgument wherever
// they sit, and a rejected encode leaves no stream state behind, so the
// finite message that follows keeps its exact bytes.
TEST(CodecFactoryTest, EveryCodecRejectsNonFiniteValues) {
  const auto grad = MakeGradient(800, 1 << 24, 179);
  const double bad_values[] = {std::nan(""), INFINITY, -INFINITY};
  const size_t positions[] = {0, grad.size() / 2, grad.size() - 1};
  for (const auto& name : core::KnownCodecNames()) {
    SCOPED_TRACE(name);
    auto fresh = std::move(core::MakeCodec(name)).value();
    EncodedGradient want;
    ASSERT_TRUE(fresh->Encode(grad, &want).ok());

    auto codec = std::move(core::MakeCodec(name)).value();
    for (const double bad : bad_values) {
      for (const size_t at : positions) {
        common::SparseGradient poisoned = grad;
        poisoned[at].value = bad;
        EncodedGradient msg;
        EXPECT_EQ(codec->Encode(poisoned, &msg).code(),
                  common::StatusCode::kInvalidArgument)
            << bad << " at " << at;
      }
    }
    EncodedGradient got;
    ASSERT_TRUE(codec->Encode(grad, &got).ok());
    EXPECT_EQ(got.bytes, want.bytes);
  }
}

// Finite extremes: sums, norms, ranges, bucket means and float casts near
// DBL_MAX must not reach the output as inf or NaN. Every codec decodes
// every finite input finite. Every codec but ZipML keeps each value's
// sign; ZipML's uniform grid may put a small value's nearest levels
// across zero, so it is held to its own bound, one grid step.
TEST(CodecFactoryTest, FiniteExtremesDecodeFiniteWithTheirSign) {
  std::vector<std::vector<std::pair<size_t, double>>> cases;
  for (const double big : {1e39, 1e300, 1.7e308}) {
    cases.push_back({{10, big}, {1000, -big}, {1990, big}});
  }
  for (const double sign : {+1.0, -1.0}) {
    std::vector<std::pair<size_t, double>> many;  // 21 x 1e308, one sign.
    for (size_t i = 0; i < 21; ++i) many.push_back({7 + 95 * i, sign * 1e308});
    cases.push_back(std::move(many));
  }
  for (const std::string& name : core::KnownCodecNames()) {
    const bool zipml = name.rfind("zipml", 0) == 0;
    const double levels = name == "zipml-8bit" ? 255.0 : 65535.0;
    for (const auto& extremes : cases) {
      SCOPED_TRACE(testing::Message() << name << " " << extremes.size()
                                      << " x " << extremes[0].second);
      common::SparseGradient grad = MakeGradient(2000, 1 << 24, 401);
      for (const auto& [i, value] : extremes) grad[i].value = value;
      auto codec = std::move(core::MakeCodec(name)).value();
      EncodedGradient msg;
      ASSERT_TRUE(codec->Encode(grad, &msg).ok());
      common::SparseGradient decoded;
      ASSERT_TRUE(codec->Decode(msg, &decoded).ok());
      ASSERT_EQ(decoded.size(), grad.size());
      double lo = grad[0].value, hi = grad[0].value;
      for (const auto& pair : grad) {
        lo = std::min(lo, pair.value);
        hi = std::max(hi, pair.value);
      }
      const double step = hi / levels - lo / levels;
      for (size_t i = 0; i < grad.size(); ++i) {
        ASSERT_TRUE(std::isfinite(decoded[i].value)) << i;
        if (zipml) {
          ASSERT_LE(std::abs(decoded[i].value - grad[i].value),
                    step * (1 + 1e-9))
              << i;
        } else {
          ASSERT_EQ(std::signbit(decoded[i].value),
                    std::signbit(grad[i].value))
              << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sketchml::compress
