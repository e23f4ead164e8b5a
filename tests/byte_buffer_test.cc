#include "common/byte_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/bit_util.h"

namespace sketchml::common {
namespace {

TEST(ByteWriterTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0x1234);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123LL);
  w.WriteFloat(1.5f);
  w.WriteDouble(-2.25);

  ByteReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  float f;
  double d;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadFloat(&f).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123LL);
  EXPECT_EQ(f, 1.5f);
  EXPECT_EQ(d, -2.25);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteWriterTest, UintNWritesExactWidth) {
  ByteWriter w;
  w.WriteUintN(0x7f, 1);
  EXPECT_EQ(w.size(), 1u);
  w.WriteUintN(0xbeef, 2);
  EXPECT_EQ(w.size(), 3u);
  w.WriteUintN(0xabcdef, 3);
  EXPECT_EQ(w.size(), 6u);

  ByteReader r(w.buffer());
  uint64_t v;
  ASSERT_TRUE(r.ReadUintN(1, &v).ok());
  EXPECT_EQ(v, 0x7fu);
  ASSERT_TRUE(r.ReadUintN(2, &v).ok());
  EXPECT_EQ(v, 0xbeefu);
  ASSERT_TRUE(r.ReadUintN(3, &v).ok());
  EXPECT_EQ(v, 0xabcdefu);
}

TEST(ByteReaderTest, ReadPastEndFails) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.buffer());
  uint32_t v32;
  EXPECT_FALSE(r.ReadU32(&v32).ok());
}

TEST(ByteReaderTest, ReadSpanViewsTheBufferAndChecksBounds) {
  const std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader r(buf);
  std::span<const uint8_t> span;
  ASSERT_TRUE(r.ReadSpan(2, &span).ok());
  EXPECT_EQ(span.data(), buf.data());
  EXPECT_EQ(span.size(), 2u);
  EXPECT_EQ(r.ReadSpan(4, &span).code(), StatusCode::kCorruptedData);
  EXPECT_EQ(r.position(), 2u);  // A failed read consumes nothing.
  ASSERT_TRUE(r.ReadSpan(3, &span).ok());
  EXPECT_EQ(span.data(), buf.data() + 2);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.ReadSpan(~size_t{0}, &span).code(),
            StatusCode::kCorruptedData);
}

TEST(ByteReaderTest, ReadUintNRejectsBadWidth) {
  std::vector<uint8_t> buf(16, 0);
  ByteReader r(buf.data(), buf.size());
  uint64_t v;
  EXPECT_EQ(r.ReadUintN(0, &v).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.ReadUintN(9, &v).code(), StatusCode::kInvalidArgument);
}

class VarintRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTripTest, RoundTrips) {
  ByteWriter w;
  w.WriteVarint(GetParam());
  ByteReader r(w.buffer());
  uint64_t v = 0;
  ASSERT_TRUE(r.ReadVarint(&v).ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, VarintRoundTripTest,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32, (1ULL << 56) + 123,
                      std::numeric_limits<uint64_t>::max()));

// VarintSize is the closed-form replacement for the old probe-a-writer
// idiom; it must match what WriteVarint actually emits, especially at
// every 7-bit group boundary where the byte count steps up.
TEST(VarintTest, VarintSizeMatchesWrittenBytesAtBoundaries) {
  std::vector<uint64_t> probes = {0, 1, 0x7e};
  for (int group = 1; group <= 9; ++group) {
    const uint64_t step_up = uint64_t{1} << (7 * group);  // Needs group+1.
    probes.push_back(step_up - 1);  // Last value of `group` bytes.
    probes.push_back(step_up);      // First value of `group` + 1 bytes.
  }
  probes.push_back(std::numeric_limits<uint64_t>::max());
  for (uint64_t v : probes) {
    ByteWriter w;
    w.WriteVarint(v);
    EXPECT_EQ(static_cast<size_t>(VarintSize(v)), w.size()) << "v=" << v;
  }
  // Spot-check the closed form itself.
  static_assert(VarintSize(0) == 1);
  static_assert(VarintSize(127) == 1);
  static_assert(VarintSize(128) == 2);
  static_assert(VarintSize((uint64_t{1} << 63) - 1) == 9);
  static_assert(VarintSize(uint64_t{1} << 63) == 10);
  static_assert(VarintSize(std::numeric_limits<uint64_t>::max()) == 10);
}

TEST(BytesNeededTest, BranchlessFormMatchesDefinition) {
  static_assert(BytesNeeded(0) == 1);
  static_assert(BytesNeeded(0xff) == 1);
  static_assert(BytesNeeded(0x100) == 2);
  static_assert(BytesNeeded(0xffff) == 2);
  static_assert(BytesNeeded(0x10000) == 3);
  static_assert(BytesNeeded(0xffffff) == 3);
  static_assert(BytesNeeded(0x1000000) == 4);
  static_assert(BytesNeeded(0xffffffffULL) == 4);
  static_assert(BytesNeeded(0x100000000ULL) == 5);
  static_assert(BytesNeeded(std::numeric_limits<uint64_t>::max()) == 8);
}

TEST(ByteWriterTest, ExtendTruncateAndMutableData) {
  ByteWriter w;
  w.WriteU8(0xaa);
  const size_t offset = w.Extend(4);
  EXPECT_EQ(offset, 1u);
  EXPECT_EQ(w.size(), 5u);
  // Extended region is zero-filled and writable in place.
  std::vector<uint8_t> expected = {0xaa, 0, 0, 0, 0};
  EXPECT_EQ(w.buffer(), expected);
  const uint32_t patch = 0xdeadbeef;
  std::memcpy(w.MutableData() + offset, &patch, sizeof(patch));
  w.Truncate(3);  // Drop the trailing slack.
  expected = {0xaa, 0xef, 0xbe};
  EXPECT_EQ(w.buffer(), expected);
}

TEST(ByteWriterTest, WriteSpanAndReserve) {
  ByteWriter w;
  w.Reserve(64);  // Capacity hint only: size stays 0.
  EXPECT_EQ(w.size(), 0u);
  const std::vector<uint8_t> payload = {1, 2, 3};
  w.WriteSpan(std::span<const uint8_t>(payload));
  w.WriteSpan(std::span<const uint8_t>());  // Empty span is a no-op.
  EXPECT_EQ(w.buffer(), payload);
}

TEST(VarintTest, TruncatedVarintFails) {
  std::vector<uint8_t> buf = {0x80, 0x80};  // Continuation with no end.
  ByteReader r(buf.data(), buf.size());
  uint64_t v;
  EXPECT_EQ(r.ReadVarint(&v).code(), StatusCode::kCorruptedData);
}

TEST(VarintTest, OverlongVarintFails) {
  std::vector<uint8_t> buf(11, 0x80);  // > 64 bits of continuation.
  ByteReader r(buf.data(), buf.size());
  uint64_t v;
  EXPECT_EQ(r.ReadVarint(&v).code(), StatusCode::kCorruptedData);
}

TEST(TwoBitStreamTest, RoundTripsAllSymbols) {
  TwoBitWriter w;
  std::vector<uint8_t> symbols = {0, 1, 2, 3, 3, 2, 1, 0, 2};
  for (uint8_t s : symbols) w.Append(s);
  EXPECT_EQ(w.size(), symbols.size());
  EXPECT_EQ(w.bytes().size(), 3u);  // ceil(9 / 4).
  // Symbol i sits at bits 2*(i%4) of byte i/4; padding bits stay zero.
  EXPECT_EQ(w.bytes(), (std::vector<uint8_t>{0xE4, 0x1B, 0x02}));
}

TEST(TwoBitStreamTest, EmptyStream) {
  TwoBitWriter w;
  EXPECT_EQ(w.size(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

}  // namespace
}  // namespace sketchml::common
