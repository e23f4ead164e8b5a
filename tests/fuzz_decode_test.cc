// Failure-injection tests: decoders must survive arbitrary corruption of
// the wire bytes — truncation, random byte flips, random garbage — by
// returning a Status (or, for undetectable flips, a decoded gradient),
// never by crashing, hanging, or attempting giant allocations. Whatever
// an OK decode yields, its keys strictly increase. The sketch blobs a node
// reads outside the codecs (KLL, MinMax and grouped MinMax state, bucket
// means) get the same treatment.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/framing.h"
#include "common/random.h"
#include "common/sparse.h"
#include "compress/quantile_bucket_quantizer.h"
#include "core/codec_factory.h"
#include "sketch/grouped_min_max_sketch.h"
#include "sketch/kll_sketch.h"
#include "sketch/min_max_sketch.h"

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

// --- Sketch blobs ---------------------------------------------------------

using Blob = std::vector<uint8_t>;

/// `blob` with the varint at `offset` replaced by `value`.
Blob PatchVarint(const Blob& blob, size_t offset, uint64_t value) {
  size_t end = offset;
  while (blob[end] & 0x80) ++end;
  common::ByteWriter varint;
  varint.WriteVarint(value);
  Blob out(blob.begin(), blob.begin() + offset);
  out.insert(out.end(), varint.buffer().begin(), varint.buffer().end());
  out.insert(out.end(), blob.begin() + end + 1, blob.end());
  return out;
}

/// `blob` with the little-endian fixed-width field at `offset` set.
template <typename T>
Blob PatchFixed(const Blob& blob, size_t offset, T value) {
  Blob out = blob;
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[offset + i] = static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i));
  }
  return out;
}

// Each parser deserializes into a fresh sketch and sets *sane when the
// result, if OK, holds the sketch's own invariants.
common::Status ParseKll(const Blob& blob, bool* sane) {
  common::ByteReader reader(blob);
  sketch::KllSketch out;
  const common::Status status = sketch::KllSketch::Deserialize(&reader, &out);
  *sane = !status.ok() || out.InvariantsHold();
  return status;
}

common::Status ParseMinMax(const Blob& blob, bool* sane) {
  common::ByteReader reader(blob);
  sketch::MinMaxSketch out(1, 1);
  *sane = true;
  return sketch::MinMaxSketch::Deserialize(&reader, &out);
}

common::Status ParseGrouped(const Blob& blob, bool* sane) {
  common::ByteReader reader(blob);
  sketch::GroupedMinMaxSketch out(2, 1, 1, 1);
  *sane = true;
  return sketch::GroupedMinMaxSketch::Deserialize(&reader, &out);
}

common::Status ParseMeans(const Blob& blob, bool* sane) {
  common::ByteReader reader(blob);
  QuantileBucketQuantizer out({0.0, 0.0});
  const auto status = QuantileBucketQuantizer::DeserializeMeans(&reader, &out);
  *sane = true;
  for (int b = 0; status.ok() && b < out.num_buckets(); ++b) {
    *sane = *sane && std::isfinite(out.MeanOf(b));
  }
  return status;
}

struct SketchBlob {
  std::string name;
  Blob bytes;
  common::Status (*parse)(const Blob&, bool* sane);
  // Blobs whose length or k field says 2^31, 2^40 or 2^63.
  std::vector<Blob> patched;
};

std::vector<SketchBlob> SketchBlobs() {
  const uint64_t huge[] = {uint64_t{1} << 31, uint64_t{1} << 40,
                           uint64_t{1} << 63};
  std::vector<SketchBlob> blobs;

  sketch::KllSketch kll(64, 3);
  common::Rng rng(331);
  for (int i = 0; i < 3000; ++i) kll.Update(rng.NextGaussian());
  common::ByteWriter kll_writer;
  kll.Serialize(&kll_writer);
  SketchBlob kll_blob{"kll", kll_writer.buffer(), &ParseKll, {}};
  // Version (1), k (4), count (8), min, max (8 each), level count, then
  // level 0's length.
  constexpr size_t kKOffset = 1, kCountOffset = 5, kLevel0Offset = 30;
  kll_blob.patched.push_back(
      PatchFixed(kll_blob.bytes, kKOffset, static_cast<uint32_t>(huge[0])));
  for (uint64_t value : huge) {
    kll_blob.patched.push_back(PatchFixed(kll_blob.bytes, kCountOffset, value));
    kll_blob.patched.push_back(
        PatchVarint(kll_blob.bytes, kLevel0Offset, value));
    // The count raised to match, so only the length check stands.
    kll_blob.patched.push_back(PatchVarint(
        PatchFixed(kll_blob.bytes, kCountOffset, value), kLevel0Offset, value));
  }
  blobs.push_back(std::move(kll_blob));

  sketch::MinMaxSketch minmax(2, 64, 5);
  for (uint64_t key = 0; key < 200; ++key) {
    minmax.Insert(key, static_cast<uint8_t>(key % 200));
  }
  common::ByteWriter minmax_writer;
  minmax.Serialize(&minmax_writer);
  SketchBlob minmax_blob{"minmax", minmax_writer.buffer(), &ParseMinMax, {}};
  // Rows, then cols, are the first two varints.
  for (uint64_t value : huge) {
    minmax_blob.patched.push_back(PatchVarint(minmax_blob.bytes, 0, value));
    minmax_blob.patched.push_back(PatchVarint(minmax_blob.bytes, 1, value));
  }
  blobs.push_back(std::move(minmax_blob));

  sketch::GroupedMinMaxSketch grouped(256, 8, 2, 512);
  for (uint64_t key = 0; key < 500; ++key) {
    grouped.Insert(key * 7, static_cast<int>(key % 256));
  }
  common::ByteWriter grouped_writer;
  grouped.Serialize(&grouped_writer);
  SketchBlob grouped_blob{"grouped", grouped_writer.buffer(), &ParseGrouped,
                          {}};
  // Bucket count (2 bytes for 256), then group count.
  for (uint64_t value : huge) {
    grouped_blob.patched.push_back(PatchVarint(grouped_blob.bytes, 0, value));
    grouped_blob.patched.push_back(PatchVarint(grouped_blob.bytes, 2, value));
    // The first group's rows and cols.
    grouped_blob.patched.push_back(PatchVarint(grouped_blob.bytes, 3, value));
    grouped_blob.patched.push_back(PatchVarint(grouped_blob.bytes, 4, value));
  }
  blobs.push_back(std::move(grouped_blob));

  std::vector<double> values(3000);
  for (double& v : values) v = rng.NextGaussian();
  const QuantileBucketQuantizer quantizer =
      QuantileBucketQuantizer::Build(values, 64, 128, 7);
  common::ByteWriter means_writer;
  quantizer.SerializeMeans(&means_writer);
  SketchBlob means_blob{"means", means_writer.buffer(), &ParseMeans, {}};
  // The bucket count is the first varint.
  for (uint64_t value : huge) {
    means_blob.patched.push_back(PatchVarint(means_blob.bytes, 0, value));
  }
  blobs.push_back(std::move(means_blob));
  return blobs;
}

TEST(SketchBlobFuzzTest, IntactBlobsParse) {
  for (const SketchBlob& blob : SketchBlobs()) {
    bool sane = false;
    EXPECT_TRUE(blob.parse(blob.bytes, &sane).ok()) << blob.name;
    EXPECT_TRUE(sane) << blob.name;
  }
}

TEST(SketchBlobFuzzTest, TruncationAtEveryPrefixFails) {
  for (const SketchBlob& blob : SketchBlobs()) {
    for (size_t len = 0; len < blob.bytes.size(); ++len) {
      bool sane = false;
      EXPECT_FALSE(
          blob.parse(Blob(blob.bytes.begin(), blob.bytes.begin() + len), &sane)
              .ok())
          << blob.name << " prefix " << len;
    }
  }
}

TEST(SketchBlobFuzzTest, HugeLengthAndKFieldsFail) {
  for (const SketchBlob& blob : SketchBlobs()) {
    for (size_t i = 0; i < blob.patched.size(); ++i) {
      bool sane = false;
      EXPECT_FALSE(blob.parse(blob.patched[i], &sane).ok())
          << blob.name << " patch " << i;
    }
  }
}

// A flipped item or table byte can still parse; whatever parses must hold
// the sketch's invariants, and nothing may abort or over-allocate.
TEST(SketchBlobFuzzTest, SurvivesSeededBitFlips) {
  common::Rng rng(337);
  for (const SketchBlob& blob : SketchBlobs()) {
    for (int trial = 0; trial < 300; ++trial) {
      Blob flipped = blob.bytes;
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        // Half the flips land in the first 40 bytes, where the shapes live.
        const size_t span = trial % 2 == 0
                                ? std::min<size_t>(40, flipped.size())
                                : flipped.size();
        flipped[rng.NextBounded(span)] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      bool sane = false;
      const common::Status status = blob.parse(flipped, &sane);
      EXPECT_TRUE(sane) << blob.name << " trial " << trial << ": "
                        << status.ToString();
    }
  }
}

}  // namespace
}  // namespace sketchml::compress
