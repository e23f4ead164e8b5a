#ifndef SKETCHML_COMPRESS_QSGD_CODEC_H_
#define SKETCHML_COMPRESS_QSGD_CODEC_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "compress/codec.h"

namespace sketchml::compress {

/// QSGD-style randomized quantization (Alistarh et al. [5], cited by the
/// paper as the theory behind lossy gradient quantization).
///
/// Each value v is encoded as sign(v) and a stochastic level
/// l ∈ {0..s} with E[l/s * ||g||_2] = |v|: quantization is unbiased and
/// the variance is bounded by min(d/s^2, sqrt(d)/s) ||g||^2 (the bound
/// Appendix A.1 compares against). Levels concentrate at 0 for small
/// gradients, so they compress well; we store them with Elias-gamma
/// bit codes as the QSGD paper proposes. Keys stay 4-byte ints (QSGD,
/// like ZipML, targets dense vectors).
/// Extreme values: where the squared norm overflows, the norm is summed
/// with hypot and saturates at DBL_MAX, which keeps the levels unbiased;
/// every finite input decodes finite, with its sign.
class QsgdCodec : public GradientCodec {
 public:
  /// `levels` is the paper's s (quantization levels per sign).
  explicit QsgdCodec(int levels = 255, uint64_t seed = 19);

  std::string Name() const override { return "qsgd"; }

  /// Fresh instance on a decorrelated seed lane (see common::LaneSeed).
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<QsgdCodec>(levels_, common::LaneSeed(seed_, lane));
  }

  /// Stream state is the stochastic-rounding RNG's position: restoring
  /// it makes the instance draw the exact levels the original would.
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

  int levels() const { return levels_; }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  int levels_;
  uint64_t seed_;
  common::Rng rng_;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_QSGD_CODEC_H_
