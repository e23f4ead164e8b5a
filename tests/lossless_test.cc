#include "compress/lossless.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sparse.h"
#include "compress/raw_codec.h"

namespace sketchml::compress {
namespace {

std::vector<uint8_t> ToBytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(HuffmanByteCoderTest, RoundTripsText) {
  std::string text;
  for (int i = 0; i < 30; ++i) {
    text +=
        "sketchml compresses the communicated key-value gradients with "
        "data sketches; entropy coding likes low-entropy text like this. ";
  }
  const auto input = ToBytes(text);  // Long enough to amortize the
                                     // 257-byte code-length header.
  std::vector<uint8_t> encoded, decoded;
  HuffmanByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
  EXPECT_LT(encoded.size(), input.size());  // Text compresses.
}

TEST(HuffmanByteCoderTest, EmptyInput) {
  std::vector<uint8_t> encoded, decoded = {1, 2, 3};
  HuffmanByteCoder::Encode({}, &encoded);
  ASSERT_TRUE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(HuffmanByteCoderTest, SingleDistinctByte) {
  std::vector<uint8_t> input(1000, 0x42);
  std::vector<uint8_t> encoded, decoded;
  HuffmanByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
  // 1 bit per byte + 257-byte header.
  EXPECT_LT(encoded.size(), 400u);
}

TEST(HuffmanByteCoderTest, AllByteValues) {
  std::vector<uint8_t> input;
  for (int rep = 0; rep < 5; ++rep) {
    for (int b = 0; b < 256; ++b) input.push_back(static_cast<uint8_t>(b));
  }
  std::vector<uint8_t> encoded, decoded;
  HuffmanByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
}

TEST(HuffmanByteCoderTest, RandomBytesBarelyCompress) {
  // The §5 point: uniformly distributed bytes (like float gradients)
  // have ~8 bits of entropy per byte — Huffman gains nothing.
  common::Rng rng(307);
  std::vector<uint8_t> input(20000);
  for (auto& b : input) b = static_cast<uint8_t>(rng.NextBounded(256));
  std::vector<uint8_t> encoded, decoded;
  HuffmanByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
  EXPECT_GT(encoded.size(), input.size() * 95 / 100);
}

TEST(HuffmanByteCoderTest, DecodeRejectsTruncation) {
  const auto input = ToBytes("some sample payload for truncation testing");
  std::vector<uint8_t> encoded, decoded;
  HuffmanByteCoder::Encode(input, &encoded);
  encoded.resize(encoded.size() - 3);
  EXPECT_FALSE(HuffmanByteCoder::Decode(encoded, &decoded).ok());
}

TEST(RunLengthByteCoderTest, RoundTripsRuns) {
  std::vector<uint8_t> input;
  input.insert(input.end(), 300, 7);   // Long run (split at 255).
  input.insert(input.end(), 1, 9);
  input.insert(input.end(), 50, 0);
  std::vector<uint8_t> encoded, decoded;
  RunLengthByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(RunLengthByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
  EXPECT_LT(encoded.size(), 20u);  // 4 pairs + header.
}

TEST(RunLengthByteCoderTest, NonRepetitiveInputExpands) {
  // The §5 point for RLE: without consecutive repeats it doubles size.
  std::vector<uint8_t> input;
  for (int i = 0; i < 1000; ++i) input.push_back(static_cast<uint8_t>(i * 37));
  std::vector<uint8_t> encoded, decoded;
  RunLengthByteCoder::Encode(input, &encoded);
  ASSERT_TRUE(RunLengthByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_EQ(decoded, input);
  EXPECT_GT(encoded.size(), input.size() * 3 / 2);
}

TEST(RunLengthByteCoderTest, EmptyAndGarbage) {
  std::vector<uint8_t> encoded, decoded = {1};
  RunLengthByteCoder::Encode({}, &encoded);
  ASSERT_TRUE(RunLengthByteCoder::Decode(encoded, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
  std::vector<uint8_t> bad = {0x08, 0x00, 0x05};  // Declares 8, zero run.
  EXPECT_FALSE(RunLengthByteCoder::Decode(bad, &decoded).ok());
}

common::SparseGradient MakeGradient(size_t count, uint64_t seed) {
  common::Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(1 << 20));
  common::SparseGradient grad;
  for (uint64_t k : keys) grad.push_back({k, rng.NextGaussian() * 0.05});
  return grad;
}

TEST(LosslessGradientCodecTest, HuffmanRoundTripsGradientsExactly) {
  HuffmanGradientCodec codec("huffman");
  const auto grad = MakeGradient(2000, 311);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_EQ(decoded, grad);
}

TEST(LosslessGradientCodecTest, RleRoundTripsGradientsExactly) {
  RleGradientCodec codec("rle");
  const auto grad = MakeGradient(2000, 313);
  EncodedGradient msg;
  ASSERT_TRUE(codec.Encode(grad, &msg).ok());
  common::SparseGradient decoded;
  ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
  EXPECT_EQ(decoded, grad);
}

TEST(LosslessGradientCodecTest, BothLoseToSketchKeyEncodingOnGradients) {
  // §5's verdict measured: generic lossless coding of the raw 12d bytes
  // cannot get close to delta-binary + sketch compression; RLE even
  // expands the message.
  const auto grad = MakeGradient(5000, 317);
  RawCodec raw;
  HuffmanGradientCodec huffman("huffman");
  RleGradientCodec rle("rle");
  EncodedGradient m_raw, m_huffman, m_rle;
  ASSERT_TRUE(raw.Encode(grad, &m_raw).ok());
  ASSERT_TRUE(huffman.Encode(grad, &m_huffman).ok());
  ASSERT_TRUE(rle.Encode(grad, &m_rle).ok());
  EXPECT_GT(m_huffman.size(), m_raw.size() / 2);  // < 2x gain.
  EXPECT_GT(m_rle.size(), m_raw.size());          // Expansion.
}

}  // namespace
}  // namespace sketchml::compress
