#ifndef SKETCHML_COMPRESS_CHECKSUMMED_CODEC_H_
#define SKETCHML_COMPRESS_CHECKSUMMED_CODEC_H_

#include <memory>
#include <string>
#include <utility>

#include "compress/codec.h"

namespace sketchml::compress {

/// Decorator that frames any codec's message with a length + CRC-32
/// header, turning silent wire corruption into a kCorruptedData status
/// before the inner decoder ever parses the bytes.
///
/// Wire format: the `common::FrameMessage` frame around the inner
/// message (u32 length | u32 crc32(inner message) | inner message).
class ChecksummedCodec : public GradientCodec {
 public:
  explicit ChecksummedCodec(std::unique_ptr<GradientCodec> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name() + "+crc"; }

  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<ChecksummedCodec>(inner_->Fork(lane));
  }

  /// The framing itself is stateless; checkpoint state is the inner
  /// codec's.
  void SaveState(common::ByteWriter* writer) const override {
    inner_->SaveState(writer);
  }
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override {
    return inner_->RestoreState(reader);
  }

  const GradientCodec& inner() const { return *inner_; }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  std::unique_ptr<GradientCodec> inner_;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_CHECKSUMMED_CODEC_H_
