#ifndef SKETCHML_COMPRESS_ERROR_FEEDBACK_CODEC_H_
#define SKETCHML_COMPRESS_ERROR_FEEDBACK_CODEC_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "compress/codec.h"

namespace sketchml::compress {

/// Error-feedback (residual compensation) wrapper around a lossy codec —
/// the mechanism 1-bit SGD [39] relies on to converge despite its
/// extreme quantization, and a standard companion to any biased
/// compressor (such as MinMaxSketch's systematic decay).
///
/// On every Encode the sender adds its accumulated residual to the
/// gradient, compresses the sum, and keeps the part the codec lost:
///
///   compensated = gradient + residual
///   message     = Encode(compensated)
///   residual    = compensated - Decode(message)
///
/// Over time every coordinate's error is eventually transmitted, so the
/// *accumulated* applied update is unbiased even when each message is
/// not. The wrapper is stateful per sender: use one instance per worker.
class ErrorFeedbackCodec : public GradientCodec {
 public:
  explicit ErrorFeedbackCodec(std::unique_ptr<GradientCodec> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name() + "+ef"; }

  /// Forks start with an empty residual — exactly the per-sender state a
  /// fresh worker would hold.
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<ErrorFeedbackCodec>(inner_->Fork(lane));
  }

  /// Chains the inner codec's state, then the residual map as a count
  /// plus key-sorted (varint key, double value) pairs — sorted so the
  /// blob is a pure function of the residual multiset (the map's
  /// iteration order is not deterministic). This blob doubles as the
  /// warm-start handoff a joining worker adopts from a leaver: restoring
  /// it transfers the leaver's unsent error-feedback mass.
  void SaveState(common::ByteWriter* writer) const override;
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override;

  /// Current residual L1 mass (diagnostic / tests).
  double ResidualL1() const;

  /// Number of dimensions currently carrying residual.
  size_t ResidualSize() const { return residual_.size(); }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            EncodedGradient* out) override;

  /// Decoding is stateless and simply forwards to the inner codec.
  common::Status DecodeImpl(const EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  std::unique_ptr<GradientCodec> inner_;
  std::unordered_map<uint64_t, double> residual_;

  // Lazily bound error-feedback magnitude metrics (registered under the
  // wrapped codec's name on the first instrumented Encode).
  bool obs_init_ = false;
  obs::Counter residual_l1_counter_;
  obs::Gauge residual_keys_gauge_;
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_ERROR_FEEDBACK_CODEC_H_
