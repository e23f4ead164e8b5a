#ifndef SKETCHML_COMPRESS_RAW_CODEC_H_
#define SKETCHML_COMPRESS_RAW_CODEC_H_

#include <string>

#include "compress/codec.h"

namespace sketchml::compress {

/// Width of the transmitted value (Table 4's "weight type").
enum class ValueType { kDouble, kFloat };

/// The no-compression baseline ("Adam" in the paper's plots): 4-byte keys
/// plus 8-byte double (or 4-byte float) values, 12d (or 8d) bytes total.
///
/// With kFloat, values round-trip through IEEE float, which is the only
/// loss this codec introduces. Extreme values: a value past float's range
/// saturates at +-FLT_MAX, so every finite input decodes finite.
class RawCodec : public GradientCodec {
 public:
  explicit RawCodec(ValueType value_type = ValueType::kDouble)
      : value_type_(value_type) {}

  std::string Name() const override {
    return value_type_ == ValueType::kDouble ? "adam-double" : "adam-float";
  }

  /// Stateless: a fork is a plain copy.
  std::unique_ptr<GradientCodec> Fork(uint64_t /*lane*/) const override {
    return std::make_unique<RawCodec>(value_type_);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  ValueType value_type_;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_RAW_CODEC_H_
