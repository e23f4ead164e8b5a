#ifndef SKETCHML_COMPRESS_ONE_BIT_CODEC_H_
#define SKETCHML_COMPRESS_ONE_BIT_CODEC_H_

#include <string>

#include "compress/codec.h"

namespace sketchml::compress {

/// 1-bit SGD / threshold truncation baseline (Seide et al. [39]).
///
/// Each value is reduced to its sign bit; the decoder reconstructs
/// sign * (mean magnitude of that sign's values). The paper dismisses this
/// family as "too aggressive ... to get converged" (§1.1, §5); it is here
/// so that claim can be measured (see `theory_validation`).
/// Extreme values: where a sign's magnitudes sum past DBL_MAX, its mean is
/// taken term by term and saturates, so every finite input decodes finite.
class OneBitCodec : public GradientCodec {
 public:
  std::string Name() const override { return "onebit"; }

  /// Stateless: a fork is a plain copy.
  std::unique_ptr<GradientCodec> Fork(uint64_t /*lane*/) const override {
    return std::make_unique<OneBitCodec>();
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_ONE_BIT_CODEC_H_
