#include "compress/delta_binary_key_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"

namespace sketchml::compress {
namespace {

std::vector<uint64_t> RandomSortedKeys(size_t count, uint64_t dim,
                                       uint64_t seed) {
  common::Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(dim));
  return {keys.begin(), keys.end()};
}

TEST(DeltaBinaryKeyCodecTest, PaperExampleRoundTrips) {
  // The key list from Figure 7.
  std::vector<uint64_t> keys = {702, 735, 1244, 2516, 3536, 3786, 4187, 4195};
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_EQ(decoded, keys);
  // Deltas: 702,33,509,1272,1020,250,401,8 -> widths 2,1,2,2,2,1,2,1 = 13
  // bytes + 2 flag bytes + 1 count byte = 16.
  EXPECT_EQ(writer.size(), 16u);
}

TEST(DeltaBinaryKeyCodecTest, EmptyKeyList) {
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode({}, &writer).ok());
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded = {1, 2, 3};
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(DeltaBinaryKeyCodecTest, SingleKeyIncludingZero) {
  for (uint64_t key : {0ULL, 1ULL, 255ULL, 256ULL, 4294967295ULL}) {
    common::ByteWriter writer;
    ASSERT_TRUE(DeltaBinaryKeyCodec::Encode({key}, &writer).ok());
    common::ByteReader reader(writer.buffer());
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0], key);
  }
}

TEST(DeltaBinaryKeyCodecTest, RejectsUnsortedKeys) {
  common::ByteWriter writer;
  EXPECT_EQ(DeltaBinaryKeyCodec::Encode({5, 3}, &writer).code(),
            common::StatusCode::kInvalidArgument);
  common::ByteWriter writer2;
  EXPECT_EQ(DeltaBinaryKeyCodec::Encode({5, 5}, &writer2).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(DeltaBinaryKeyCodecTest, RejectsHugeDelta) {
  common::ByteWriter writer;
  EXPECT_EQ(DeltaBinaryKeyCodec::Encode({0, (1ULL << 33)}, &writer).code(),
            common::StatusCode::kOutOfRange);
}

TEST(DeltaBinaryKeyCodecTest, BoundaryDeltasUseMinimalWidth) {
  // Deltas exactly at the byte-width thresholds of §3.4.
  std::vector<uint64_t> keys = {255};            // 1 byte.
  keys.push_back(keys.back() + 256);             // 2 bytes.
  keys.push_back(keys.back() + 65535);           // 2 bytes.
  keys.push_back(keys.back() + 65536);           // 3 bytes.
  keys.push_back(keys.back() + 16777215);        // 3 bytes.
  keys.push_back(keys.back() + 16777216);        // 4 bytes.
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  // 1 count + 2 flag bytes (6 keys) + 1+2+2+3+3+4 delta bytes = 18.
  EXPECT_EQ(writer.size(), 18u);
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_EQ(decoded, keys);
}

TEST(DeltaBinaryKeyCodecTest, EncodedSizeMatchesActual) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto keys = RandomSortedKeys(500, 1 << 20, seed);
    common::ByteWriter writer;
    ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
    EXPECT_EQ(DeltaBinaryKeyCodec::EncodedSize(keys), writer.size());
  }
}

TEST(DeltaBinaryKeyCodecTest, DecodeDetectsTruncation) {
  const auto keys = RandomSortedKeys(100, 1 << 16, 4);
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  auto bytes = writer.buffer();
  bytes.resize(bytes.size() / 2);
  common::ByteReader reader(bytes.data(), bytes.size());
  std::vector<uint64_t> decoded;
  EXPECT_EQ(DeltaBinaryKeyCodec::Decode(&reader, &decoded).code(),
            common::StatusCode::kCorruptedData);
}

// Regression for the tightened count bound: a declared count small enough
// that `count <= remaining` but whose mandatory flag stream alone
// (ceil(count/4) bytes on top of >= 1 delta byte per key) cannot fit must
// be rejected before any allocation, not discovered mid-read.
TEST(DeltaBinaryKeyCodecTest, DecodeRejectsCountThatOnlyFitsWithoutFlags) {
  // count = 8 needs 8 delta bytes + 2 flag bytes = 10; give it exactly 8.
  common::ByteWriter writer;
  writer.WriteVarint(8);
  for (int i = 0; i < 8; ++i) writer.WriteU8(0x01);
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded;
  EXPECT_EQ(DeltaBinaryKeyCodec::Decode(&reader, &decoded).code(),
            common::StatusCode::kCorruptedData);

  // One extra byte short of the flag overhead still fails...
  common::ByteWriter writer2;
  writer2.WriteVarint(8);
  for (int i = 0; i < 9; ++i) writer2.WriteU8(0x01);
  common::ByteReader reader2(writer2.buffer());
  EXPECT_EQ(DeltaBinaryKeyCodec::Decode(&reader2, &decoded).code(),
            common::StatusCode::kCorruptedData);

  // ...while the exact minimum (2 flag bytes of all-"1-byte" symbols + 8
  // nonzero deltas) decodes.
  common::ByteWriter writer3;
  writer3.WriteVarint(8);
  writer3.WriteU8(0x00);
  writer3.WriteU8(0x00);
  for (int i = 0; i < 8; ++i) writer3.WriteU8(0x01);
  common::ByteReader reader3(writer3.buffer());
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader3, &decoded).ok());
  const std::vector<uint64_t> expected = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(decoded, expected);
}

// Decode loads deltas eight bytes at a time while the buffer allows and
// finishes byte by byte, so a block of 4-byte deltas that ends exactly at
// the end of the buffer exercises the tail (ASan flags any overread).
TEST(DeltaBinaryKeyCodecTest, WideDeltasEndingAtTheBufferEndDecode) {
  for (const size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < count; ++i) keys.push_back((i + 1) * 16777216);
    common::ByteWriter writer;
    ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
    const std::vector<uint8_t> bytes(writer.buffer());  // Exact size.
    common::ByteReader reader(bytes.data(), bytes.size());
    std::vector<uint64_t> decoded;
    ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
    EXPECT_EQ(decoded, keys) << "count " << count;
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(DeltaBinaryKeyCodecTest, DecodeRejectsEveryTruncatedPrefix) {
  std::vector<uint64_t> keys = {3, 300, 70000, 20000000, 20000001};
  for (uint64_t key : RandomSortedKeys(40, 1 << 16, 17)) {
    keys.push_back(keys.back() + 1 + key);
  }
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  for (size_t len = 0; len < writer.size(); ++len) {
    const std::vector<uint8_t> prefix(writer.buffer().begin(),
                                      writer.buffer().begin() + len);
    common::ByteReader reader(prefix.data(), prefix.size());
    std::vector<uint64_t> decoded;
    EXPECT_EQ(DeltaBinaryKeyCodec::Decode(&reader, &decoded).code(),
              common::StatusCode::kCorruptedData)
        << "prefix " << len;
  }
}

TEST(DeltaBinaryKeyCodecTest, DecodeRejectsAZeroDeltaAfterTheFirstKey) {
  // Three 1-byte deltas (flag byte 0x00); only the first may be zero.
  const auto decode = [](std::vector<uint8_t> deltas,
                         std::vector<uint64_t>* keys) {
    common::ByteWriter writer;
    writer.WriteVarint(deltas.size());
    writer.WriteU8(0x00);
    writer.WriteBytes(deltas);
    common::ByteReader reader(writer.buffer());
    return DeltaBinaryKeyCodec::Decode(&reader, keys);
  };
  std::vector<uint64_t> keys;
  EXPECT_EQ(decode({5, 0, 3}, &keys).code(),
            common::StatusCode::kCorruptedData);
  EXPECT_EQ(decode({5, 3, 0}, &keys).code(),
            common::StatusCode::kCorruptedData);
  ASSERT_TRUE(decode({0, 1, 2}, &keys).ok());
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 1, 3}));
}

// The last flag byte of a count that is not a multiple of four carries
// unused symbols. Decode must not count them toward the delta block.
TEST(DeltaBinaryKeyCodecTest, DecodeIgnoresFlagPaddingBits) {
  const std::vector<uint64_t> keys = {1, 300, 70000, 70001, 70002};
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  std::vector<uint8_t> bytes = writer.buffer();
  bytes[2] |= 0xFC;  // Count byte, one full flag byte, then keys 4..7.
  common::ByteReader reader(bytes);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_EQ(decoded, keys);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(DeltaBinaryKeyCodecTest, DecodeAppendKeepsEarlierKeys) {
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode({1, 2, 300}, &writer).ok());
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode({}, &writer).ok());
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode({0, 9}, &writer).ok());
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> keys = {70, 80};
  for (int block = 0; block < 3; ++block) {
    ASSERT_TRUE(DeltaBinaryKeyCodec::DecodeAppend(&reader, &keys).ok());
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{70, 80, 1, 2, 300, 0, 9}));
  EXPECT_TRUE(reader.AtEnd());

  // A block that fails (a zero second delta) appends nothing.
  const std::vector<uint8_t> bad = {2, 0x00, 4, 0};
  common::ByteReader bad_reader(bad);
  EXPECT_EQ(DeltaBinaryKeyCodec::DecodeAppend(&bad_reader, &keys).code(),
            common::StatusCode::kCorruptedData);
  EXPECT_EQ(keys, (std::vector<uint64_t>{70, 80, 1, 2, 300, 0, 9}));
}

class DeltaKeyDensityTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(DeltaKeyDensityTest, RoundTripsAndBeatsRawInts) {
  const size_t count = std::get<0>(GetParam());
  const uint64_t dim = std::get<1>(GetParam());
  const auto keys = RandomSortedKeys(count, dim, count ^ dim);
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_EQ(decoded, keys);
  EXPECT_LT(writer.size(), keys.size() * 4);  // Beats 4-byte raw keys.
}

INSTANTIATE_TEST_SUITE_P(
    Densities, DeltaKeyDensityTest,
    ::testing::Values(std::make_tuple(100, 1000ULL),        // Dense.
                      std::make_tuple(1000, 100000ULL),     // 1 %.
                      std::make_tuple(1000, 10000000ULL),   // Sparse.
                      std::make_tuple(5000, 1ULL << 31)));  // Very sparse.

TEST(DeltaBinaryKeyCodecTest, DenseKeysApproachOneByteAndAQuarter) {
  // Appendix A.3: with average delta < 256 every key costs 1 delta byte +
  // 1/4 flag byte.
  std::vector<uint64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 3;
  common::ByteWriter writer;
  ASSERT_TRUE(DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
  const double bytes_per_key =
      static_cast<double>(writer.size()) / keys.size();
  EXPECT_NEAR(bytes_per_key, 1.25, 0.01);
}

TEST(BitmapKeyCodecTest, RoundTrips) {
  const auto keys = RandomSortedKeys(200, 5000, 9);
  common::ByteWriter writer;
  ASSERT_TRUE(BitmapKeyCodec::Encode(keys, 5000, &writer).ok());
  EXPECT_EQ(writer.size(), BitmapKeyCodec::EncodedSize(5000));
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(BitmapKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_EQ(decoded, keys);
}

TEST(BitmapKeyCodecTest, RejectsKeyBeyondDim) {
  common::ByteWriter writer;
  EXPECT_EQ(BitmapKeyCodec::Encode({10}, 10, &writer).code(),
            common::StatusCode::kOutOfRange);
}

TEST(BitmapKeyCodecTest, EmptyBitmap) {
  common::ByteWriter writer;
  ASSERT_TRUE(BitmapKeyCodec::Encode({}, 100, &writer).ok());
  common::ByteReader reader(writer.buffer());
  std::vector<uint64_t> decoded = {1};
  ASSERT_TRUE(BitmapKeyCodec::Decode(&reader, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(BitmapKeyCodecTest, DeltaBeatsBitmapWhenSparse) {
  // A.3's conclusion: delta-binary wins for sparse gradients because the
  // bitmap pays ceil(D/8) regardless of d.
  const uint64_t dim = 1 << 24;
  const auto keys = RandomSortedKeys(1000, dim, 13);
  EXPECT_LT(DeltaBinaryKeyCodec::EncodedSize(keys),
            BitmapKeyCodec::EncodedSize(dim) / 100);
}

}  // namespace
}  // namespace sketchml::compress
