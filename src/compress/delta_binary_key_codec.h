#ifndef SKETCHML_COMPRESS_DELTA_BINARY_KEY_CODEC_H_
#define SKETCHML_COMPRESS_DELTA_BINARY_KEY_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace sketchml::compress {

/// Dynamic delta-binary encoding of sorted gradient keys (§3.4, Figure 7).
///
/// Keys are non-repetitive and ascending, so only the increments between
/// neighbors are stored. Each delta takes the least number of whole bytes
/// that holds it (1..4), recorded in a separate 2-bit "byte flag" stream:
/// flag 00 = 1 byte (delta in [0, 255]), 01 = 2 bytes, 10 = 3 bytes,
/// 11 = 4 bytes. Lossless by construction. The paper measures ~1.27 bytes
/// per key including the flag, vs 4 bytes for raw int keys.
///
/// Wire format: varint count | packed 2-bit flags (ceil(count/4) bytes) |
/// delta bytes (little-endian, variable width per flag).
class DeltaBinaryKeyCodec {
 public:
  /// Caller-owned scratch for Encode, reused across calls so the hot
  /// path allocates nothing (5 bytes/key vs the 16 the old staged
  /// `vector<pair<uint64_t,int>>` cost per key).
  struct EncodeScratch {
    std::vector<uint32_t> deltas;
    std::vector<uint8_t> widths;
  };

  /// Appends the encoding of `keys` (strictly increasing, each delta and
  /// the first key < 2^32) to `writer`. Single pass: one dispatched
  /// simd::DeltaScan computes deltas and branchless widths, then flags
  /// and deltas are written directly into the framed output.
  static common::Status Encode(std::span<const uint64_t> keys,
                               common::ByteWriter* writer,
                               EncodeScratch* scratch);

  /// Encode with a throwaway scratch, for callers off the hot path.
  static common::Status Encode(const std::vector<uint64_t>& keys,
                               common::ByteWriter* writer) {
    EncodeScratch scratch;
    return Encode(keys, writer, &scratch);
  }

  /// Decodes one key block written by `Encode`, appending its keys to
  /// `keys` (whose earlier contents stay). One pass: the flag block's
  /// widths sum to the delta block's exact length, which is bounds-checked
  /// once; each delta is then a fixed 8-byte little-endian load masked to
  /// its width (a byte loop for the last few, so no load passes the end
  /// of the reader's buffer). A zero delta after the first key is
  /// kCorruptedData, so the keys of an OK decode strictly increase. On
  /// error `keys` keeps its earlier contents only.
  static common::Status DecodeAppend(common::ByteReader* reader,
                                     std::vector<uint64_t>* keys);

  /// DecodeAppend into an emptied `keys`.
  static common::Status Decode(common::ByteReader* reader,
                               std::vector<uint64_t>* keys) {
    keys->clear();
    return DecodeAppend(reader, keys);
  }

  /// Exact encoded size in bytes for `keys` without materializing it.
  static size_t EncodedSize(std::span<const uint64_t> keys);
};

/// Bitmap key encoding, the alternative §A.3 weighs and rejects: one bit
/// per dimension in [0, dim). Costs ceil(dim / 8) bytes regardless of how
/// few keys are present, so it only wins for very dense gradients.
class BitmapKeyCodec {
 public:
  /// Encodes `keys` (strictly increasing, all < dim) as a dim-bit bitmap.
  static common::Status Encode(const std::vector<uint64_t>& keys,
                               uint64_t dim, common::ByteWriter* writer);

  /// Decodes a bitmap block back into the ascending key list.
  static common::Status Decode(common::ByteReader* reader,
                               std::vector<uint64_t>* keys);

  static size_t EncodedSize(uint64_t dim);
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_DELTA_BINARY_KEY_CODEC_H_
