#ifndef SKETCHML_COMPRESS_LOSSLESS_H_
#define SKETCHML_COMPRESS_LOSSLESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"

namespace sketchml::compress {

/// Canonical byte-level Huffman coding (Knuth [28]) — one of the lossless
/// methods §5 examines and rejects for gradient data: floating-point
/// bytes are near-uniformly distributed, so entropy coding buys little.
///
/// Wire format: varint original length | 256 code lengths (one byte
/// each) | packed MSB-first bitstream.
class HuffmanByteCoder {
 public:
  /// Compresses `input`; output appended to `out` (replaced, not
  /// appended). Empty input yields a minimal valid block.
  static void Encode(const std::vector<uint8_t>& input,
                     std::vector<uint8_t>* out);

  /// Inverse of Encode. Returns kCorruptedData on malformed blocks.
  static common::Status Decode(const std::vector<uint8_t>& input,
                               std::vector<uint8_t>* out);
};

/// Byte run-length encoding (RLE [18]): `(run length, value)` pairs.
/// Effective only when equal bytes repeat consecutively, which gradient
/// key/value bytes essentially never do — the other §5 negative result.
class RunLengthByteCoder {
 public:
  static void Encode(const std::vector<uint8_t>& input,
                     std::vector<uint8_t>* out);
  static common::Status Decode(const std::vector<uint8_t>& input,
                               std::vector<uint8_t>* out);
};

/// Gradient codec wrapping the raw 12d-byte serialization in a generic
/// lossless byte coder, so the paper's related-work comparison can be
/// measured end to end.
template <typename ByteCoder>
class LosslessGradientCodec : public GradientCodec {
 public:
  explicit LosslessGradientCodec(std::string name) : name_(std::move(name)) {}

  std::string Name() const override { return name_; }

  /// Stateless: a fork is a plain copy.
  std::unique_ptr<GradientCodec> Fork(uint64_t /*lane*/) const override {
    return std::make_unique<LosslessGradientCodec<ByteCoder>>(name_);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  std::string name_;
};

using HuffmanGradientCodec = LosslessGradientCodec<HuffmanByteCoder>;
using RleGradientCodec = LosslessGradientCodec<RunLengthByteCoder>;

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_LOSSLESS_H_
