#ifndef SKETCHML_COMPRESS_ZIPML_CODEC_H_
#define SKETCHML_COMPRESS_ZIPML_CODEC_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "compress/codec.h"

namespace sketchml::compress {

/// ZipML-style uniform fixed-point quantization [45] — the paper's main
/// lossy baseline.
///
/// The value range [min, max] of each gradient is divided into 2^bits - 1
/// equal *width* steps and every value maps to a grid level (stochastic
/// rounding keeps the quantizer unbiased, as QSGD/ZipML do). Keys are not
/// compressed (4-byte ints): ZipML was designed for dense vectors.
///
/// The failure mode SketchML exploits (§4.3): gradients concentrate near
/// zero, so with a uniform grid most values collapse onto the level
/// nearest zero, stalling convergence close to the optimum.
/// Extreme values: where max - min overflows, the step and each level are
/// computed without it, so every finite input decodes finite and within
/// one step. Signs are not kept: a small value's levels may straddle 0.
class ZipMlCodec : public GradientCodec {
 public:
  /// `bits` per value, 8 or 16 (Table 4 evaluates both). `seed` drives
  /// stochastic rounding; fixed seed => deterministic encoding.
  explicit ZipMlCodec(int bits = 16, uint64_t seed = 11,
                      bool stochastic_rounding = true);

  std::string Name() const override {
    return "zipml-" + std::to_string(bits_) + "bit";
  }

  /// Fresh instance on a decorrelated seed lane (see common::LaneSeed).
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<ZipMlCodec>(bits_, common::LaneSeed(seed_, lane),
                                        stochastic_rounding_);
  }

  /// Stream state is the stochastic-rounding RNG's position (see
  /// QsgdCodec::SaveState).
  void SaveState(common::ByteWriter* writer) const override {
    uint64_t state[common::Rng::kStateWords];
    rng_.SaveState(state);
    for (uint64_t word : state) writer->WriteU64(word);
  }
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override {
    uint64_t state[common::Rng::kStateWords];
    for (auto& word : state) SKETCHML_RETURN_IF_ERROR(reader->ReadU64(&word));
    rng_.RestoreState(state);
    return common::Status::Ok();
  }

  int bits() const { return bits_; }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  int bits_;
  uint64_t seed_;
  common::Rng rng_;
  bool stochastic_rounding_;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_ZIPML_CODEC_H_
