#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/sparse.h"
#include "compress/checksummed_codec.h"
#include "compress/raw_codec.h"
#include "core/sketchml_codec.h"

namespace sketchml::common {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The canonical IEEE test vector.
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  const std::string a = "a";
  EXPECT_EQ(Crc32(a.data(), 1), 0xE8B7BE43u);
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::vector<uint8_t> data(64, 0xAA);
  const uint32_t baseline = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      auto copy = data;
      copy[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(copy), baseline) << byte << ":" << bit;
    }
  }
}

TEST(ChecksummedCodecTest, RoundTripsAndNames) {
  compress::ChecksummedCodec codec(
      std::make_unique<compress::RawCodec>());
  EXPECT_EQ(codec.Name(), "adam-double+crc");

  SparseGradient grad = {{1, 0.5}, {9, -0.25}, {100, 3.0}};
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_EQ(decoded, grad);
}

TEST(ChecksummedCodecTest, DetectsEverySingleBitFlip) {
  compress::ChecksummedCodec codec(
      std::make_unique<core::SketchMlCodec>());
  Rng rng(349);
  SparseGradient grad;
  uint64_t key = 0;
  for (int i = 0; i < 500; ++i) {
    key += 1 + rng.NextBounded(50);
    grad.push_back({key, rng.NextGaussian() * 0.05});
  }
  compress::EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());

  SparseGradient decoded;
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = msg;
    const size_t pos = rng.NextBounded(corrupted.bytes.size());
    corrupted.bytes[pos] ^= static_cast<uint8_t>(1 << rng.NextBounded(8));
    const Status status = codec.Decode(corrupted, &decoded);
    ASSERT_FALSE(status.ok()) << "flip at byte " << pos << " undetected";
    EXPECT_EQ(status.code(), StatusCode::kCorruptedData);
  }
}

TEST(ChecksummedCodecTest, RejectsShortMessages) {
  compress::ChecksummedCodec codec(std::make_unique<compress::RawCodec>());
  compress::EncodedGradient tiny;
  tiny.bytes = {1, 2, 3};
  SparseGradient decoded;
  EXPECT_EQ(codec.Decode(tiny, &decoded).code(),
            StatusCode::kCorruptedData);
}

TEST(ChecksummedCodecTest, FrameOverheadIsEightBytes) {
  compress::RawCodec raw;
  compress::ChecksummedCodec framed(std::make_unique<compress::RawCodec>());
  SparseGradient grad = {{1, 1.0}, {2, 2.0}};
  compress::EncodedGradient plain, wrapped;
  ASSERT_TRUE(raw.Encode(grad, &plain).ok());
  ASSERT_TRUE(framed.Encode(grad, &wrapped).ok());
  EXPECT_EQ(wrapped.size(), plain.size() + 8);
}

}  // namespace
}  // namespace sketchml::common
