// Failure-injection tests: decoders must survive arbitrary corruption of
// the wire bytes — truncation, random byte flips, random garbage — by
// returning a Status (or, for undetectable flips, a decoded gradient),
// never by crashing, hanging, or attempting giant allocations. Whatever
// an OK decode yields, its keys strictly increase.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/framing.h"
#include "common/random.h"
#include "common/sparse.h"
#include "core/codec_factory.h"

namespace sketchml::compress {
namespace {

common::SparseGradient MakeGradient(size_t count, uint64_t dim,
                                    uint64_t seed) {
  common::Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(dim));
  common::SparseGradient grad;
  for (uint64_t k : keys) grad.push_back({k, rng.NextGaussian() * 0.05});
  return grad;
}

// The GradientCodec::Decode guarantee every test below checks.
bool SortedIfOk(const common::Status& status,
                const common::SparseGradient& decoded) {
  return !status.ok() || common::IsSortedByKey(decoded);
}

class CodecFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecFuzzTest, SurvivesTruncationAtEveryPrefixLength) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(300, 1 << 18, 271);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::SparseGradient decoded;
  // Step through prefix lengths (all below 64, then every 7th) — decode
  // must return cleanly on each.
  for (size_t len = 0; len < msg.bytes.size(); len += (len < 64 ? 1 : 7)) {
    EncodedGradient truncated;
    truncated.bytes.assign(msg.bytes.begin(), msg.bytes.begin() + len);
    // A truncated message may fail with any code, and a prefix that
    // happens to parse is acceptable, if its keys are in order.
    const common::Status status = codec->Decode(truncated, &decoded);
    EXPECT_TRUE(SortedIfOk(status, decoded)) << "prefix " << len;
  }
}

TEST_P(CodecFuzzTest, SurvivesRandomByteFlips) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(300, 1 << 18, 277);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::Rng rng(281);
  common::SparseGradient decoded;
  for (int trial = 0; trial < 200; ++trial) {
    EncodedGradient corrupted = msg;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.bytes.size());
      corrupted.bytes[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    const common::Status status = codec->Decode(corrupted, &decoded);
    EXPECT_TRUE(SortedIfOk(status, decoded)) << "trial " << trial;
    if (status.ok()) {
      // Undetectable corruption may change content but must still honor
      // basic size sanity (no billion-element explosions).
      EXPECT_LT(decoded.size(), msg.bytes.size() * 8);
    }
  }
}

TEST_P(CodecFuzzTest, SurvivesRandomGarbage) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  common::Rng rng(283);
  common::SparseGradient decoded;
  for (int trial = 0; trial < 300; ++trial) {
    EncodedGradient garbage;
    const size_t len = rng.NextBounded(256);
    garbage.bytes.resize(len);
    for (auto& b : garbage.bytes) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    // As above: garbage bytes must be survived, not classified.
    const common::Status status = codec->Decode(garbage, &decoded);
    EXPECT_TRUE(SortedIfOk(status, decoded)) << "trial " << trial;
  }
}

TEST_P(CodecFuzzTest, HugeDeclaredCountsAreRejectedCheaply) {
  // A message declaring 2^40 pairs must fail validation instead of
  // attempting the allocation.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  EncodedGradient msg;
  msg.bytes = {0x01};  // Version / type byte.
  // Varint for a huge count.
  for (int i = 0; i < 5; ++i) msg.bytes.push_back(0xff);
  msg.bytes.push_back(0x7f);
  msg.bytes.resize(64, 0);
  common::SparseGradient decoded;
  const common::Status status = codec->Decode(msg, &decoded);
  // Formats whose count field sits at offset 1 must reject outright; for
  // the others the bytes parse as something tiny — either way no giant
  // allocation may happen.
  EXPECT_TRUE(SortedIfOk(status, decoded));
  if (status.ok()) {
    EXPECT_LT(decoded.size(), 64u);
  }
}

TEST_P(CodecFuzzTest, SurvivesSingleBitFlipAtEveryPosition) {
  // Exhaustive single-bit damage over the head of the message (where
  // every format keeps its counts and offsets) and sampled positions
  // beyond: decode must return cleanly each time.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(120, 1 << 18, 293);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::SparseGradient decoded;
  for (size_t byte = 0; byte < msg.bytes.size();
       byte += (byte < 96 ? 1 : 13)) {
    for (int bit = 0; bit < 8; ++bit) {
      EncodedGradient corrupted = msg;
      corrupted.bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      const common::Status status = codec->Decode(corrupted, &decoded);
      EXPECT_TRUE(SortedIfOk(status, decoded))
          << "byte " << byte << " bit " << bit;
      if (status.ok()) {
        EXPECT_LT(decoded.size(), msg.bytes.size() * 8);
      }
    }
  }
}

TEST_P(CodecFuzzTest, ZeroLengthMessageIsHandledCleanly) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  common::SparseGradient decoded;
  EncodedGradient empty;
  const common::Status status = codec->Decode(empty, &decoded);
  if (status.ok()) {
    EXPECT_TRUE(decoded.empty());
  }
}

TEST_P(CodecFuzzTest, FramedMessagesNeverFalseOkOnCorruption) {
  // The trainer's fault path wraps every codec message in the CRC frame;
  // at that layer *every* single-bit flip and truncation must be
  // detected, so no corrupted payload ever reaches the codec undetected.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(120, 1 << 18, 307);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());
  std::vector<uint8_t> framed;
  common::FrameMessage(msg.bytes, &framed);

  std::vector<uint8_t> payload;
  for (size_t byte = 0; byte < framed.size();
       byte += (byte < 64 ? 1 : 11)) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = framed;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(common::UnframeMessage(flipped, &payload).ok())
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
  for (size_t keep = 0; keep < framed.size();
       keep += (keep < 64 ? 1 : 11)) {
    std::vector<uint8_t> cut(framed.begin(), framed.begin() + keep);
    EXPECT_FALSE(common::UnframeMessage(cut, &payload).ok())
        << "undetected truncation to " << keep << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzzTest,
                         ::testing::ValuesIn(core::KnownCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sketchml::compress
