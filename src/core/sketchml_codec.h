#ifndef SKETCHML_CORE_SKETCHML_CODEC_H_
#define SKETCHML_CORE_SKETCHML_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sparse.h"
#include "compress/codec.h"
#include "compress/delta_binary_key_codec.h"
#include "core/sketchml_config.h"

namespace sketchml::core {

/// Byte-level breakdown of one encoded message (§3.5 space analysis).
///
/// The paper's closed form: total =
///   d * (ceil(log2(rD/d)/8) + 1/4)  -- delta keys + byte flags
///   + 8q                            -- bucket means (we use float32: 4q)
///   + s * t * ceil(log2(q)/8)       -- MinMaxSketch bins
struct SpaceCost {
  size_t header_bytes = 0;
  size_t bucket_mean_bytes = 0;  // 4q per nonempty sign stream.
  size_t sketch_bytes = 0;       // MinMaxSketch bins (s * t).
  size_t key_bytes = 0;          // Delta keys + 2-bit byte flags.
  size_t value_bytes = 0;        // Per-value payload of non-sketch codecs.

  size_t Total() const {
    return header_bytes + bucket_mean_bytes + sketch_bytes + key_bytes +
           value_bytes;
  }
};

/// One sign stream of a message, as the encoders' sign split leaves it:
/// the first `size` keys (in key order) and values, negated in the
/// negative stream so both streams hold magnitudes. Both arrays hold
/// `capacity` slots, at least one more than the message has pairs: a pair
/// may go to either stream, and the split writes one slot past the
/// stream's end. They are never value-initialized, so only the slots the
/// split writes are paged in.
struct SignStream {
  std::unique_ptr<uint64_t[]> keys;
  std::unique_ptr<double[]> values;
  size_t capacity = 0;
  size_t size = 0;
};

/// The full SketchML gradient compressor (§3, Figure 2).
///
/// Encode pipeline:
///   1. split the pairs into positive and negative streams in one
///      branch-free pass (§3.3 Sol. 1); negatives are quantized on magnitude
///      so bucket 0 is always the bucket nearest zero for both streams;
///   2. per stream, quantile-bucket quantification (§3.2): a KLL quantile
///      sketch yields q equal-depth buckets, every value becomes a bucket
///      index;
///   3. the pairs are counted per group, then placed, so each group's
///      keys form one ascending run; its bucket indexes go into a grouped
///      MinMaxSketch keyed by gradient key (§3.3): min on insert / max on
///      query, so collisions only decay values toward zero, never amplify
///      or flip them;
///   4. each group's key run is delta-binary encoded (§3.4).
///
/// Decode reverses it: recover keys, query the group's sketch for each
/// key, then write each pair once, straight to its slot in key order,
/// as sign × the mean of its bucket (common::MergeSortedRuns).
///
/// Lossy but sign- and monotonicity-safe: for every pair,
/// |decoded| <= |quantized(original)| and sign(decoded) == sign(original).
///
/// Encode and Decode reuse scratch the instance owns, so one instance
/// neither encodes nor decodes concurrently; forks own their own.
class SketchMlCodec : public compress::GradientCodec {
 public:
  explicit SketchMlCodec(const SketchMlConfig& config = SketchMlConfig());

  std::string Name() const override { return "sketchml"; }

  /// Fresh instance on a decorrelated seed lane with its own message
  /// counter (see common::LaneSeed).
  std::unique_ptr<compress::GradientCodec> Fork(uint64_t lane) const override;

  /// Stream state is the message counter: each Encode seeds its sketches
  /// from (config seed, encode_calls_), so restoring the counter replays
  /// the original's message-seed sequence exactly.
  void SaveState(common::ByteWriter* writer) const override {
    writer->WriteVarint(encode_calls_);
  }
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override {
    return reader->ReadVarint(&encode_calls_);
  }

  /// Byte breakdown of the most recent Encode call.
  const SpaceCost& last_space_cost() const { return last_space_cost_; }

  const SketchMlConfig& config() const { return config_; }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override;
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override;

 public:
  /// The encode buffers of one sign stream at a time, reused across calls
  /// so the hot path allocates nothing once they have grown.
  struct EncodeScratch {
    std::vector<uint16_t> buckets;      // Quantizer batch output.
    std::vector<uint32_t> hash_idx;     // Sketch hashed indices.
    std::vector<uint64_t> group_keys;   // Group g's keys, then g + 1's.
    std::vector<uint8_t> group_locals;  // Each key's bucket in its group.
    std::vector<size_t> group_ends;     // One past each group's run.
    compress::DeltaBinaryKeyCodec::EncodeScratch delta;
  };

  /// Decode's counterpart: both streams' group key runs in wire order,
  /// and per key the slot of its signed bucket mean in `values`.
  struct DecodeScratch {
    std::vector<uint64_t> keys;
    std::vector<int> slots;        // < 2^21: two streams of <= 2^20 buckets.
    std::vector<double> values;    // sign × mean, positive stream first.
    std::vector<size_t> run_ends;  // One run per group per stream.
    std::vector<uint32_t> hash_idx;
    std::vector<uint8_t> locals;
    common::RunMergeScratch merge;
  };

 private:
  SketchMlConfig config_;
  SpaceCost last_space_cost_;
  uint64_t encode_calls_ = 0;
  SignStream streams_[2];  // Positive, negative; reused across calls.
  EncodeScratch scratch_;  // Both streams, one after the other.
  DecodeScratch decode_scratch_;
};

/// "Adam+Key" ablation stage of Figure 8: delta-binary keys, raw double
/// values. Lossless.
class KeyOnlyCodec : public compress::GradientCodec {
 public:
  std::string Name() const override { return "adam+key"; }

  /// Stateless: a fork is a plain copy.
  std::unique_ptr<compress::GradientCodec> Fork(
      uint64_t /*lane*/) const override {
    return std::make_unique<KeyOnlyCodec>();
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override;
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override;
};

/// "Adam+Key+Quan" ablation stage of Figure 8: delta-binary keys plus
/// quantile-bucket quantification with explicit one-byte bucket indexes
/// (no MinMaxSketch). Positive/negative streams are separated exactly as
/// in the full codec.
class QuantileOnlyCodec : public compress::GradientCodec {
 public:
  explicit QuantileOnlyCodec(const SketchMlConfig& config = SketchMlConfig());

  std::string Name() const override { return "adam+key+quan"; }

  /// Fresh instance on a decorrelated seed lane with its own message
  /// counter (see common::LaneSeed).
  std::unique_ptr<compress::GradientCodec> Fork(uint64_t lane) const override;

  /// Message-counter stream state, exactly as SketchMlCodec::SaveState.
  void SaveState(common::ByteWriter* writer) const override {
    writer->WriteVarint(encode_calls_);
  }
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override {
    return reader->ReadVarint(&encode_calls_);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override;
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override;

 private:
  SketchMlConfig config_;
  uint64_t encode_calls_ = 0;
  SignStream streams_[2];  // Positive, negative; reused across calls.
};

}  // namespace sketchml::core

#endif  // SKETCHML_CORE_SKETCHML_CODEC_H_
