#ifndef SKETCHML_COMPRESS_QUANTILE_BUCKET_QUANTIZER_H_
#define SKETCHML_COMPRESS_QUANTILE_BUCKET_QUANTIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace sketchml::compress {

/// Quantile-bucket quantification of gradient values (§3.2, Figure 3).
///
/// Unlike uniform quantization, which divides the value *range* equally
/// and wastes resolution on the empty tails of the near-zero-concentrated
/// gradient distribution (Figure 4), this quantizer divides the values by
/// *population*: a quantile sketch produces q+1 equal-depth splits, every
/// bucket holds ~d/q values, and each value is replaced by its bucket's
/// mean (the average of the two enclosing splits). The bucket index (< q,
/// one byte when q <= 256) is what travels on the wire.
///
/// Theorem A.2: the quantization variance is bounded by
/// d/(4q) * (phi_min^2 + phi_max^2).
class QuantileBucketQuantizer {
 public:
  /// Builds splits for `values` using a KLL quantile sketch of size
  /// `sketch_k` (the paper defaults to 128) seeded with `seed`, and
  /// `num_buckets` equal-depth buckets (paper's q, <= 256 so indexes fit
  /// one byte). `values` must be non-empty.
  static QuantileBucketQuantizer Build(std::span<const double> values,
                                       int num_buckets, int sketch_k = 128,
                                       uint64_t seed = 1);

  /// Builds directly from precomputed splits (num_buckets = splits-1).
  explicit QuantileBucketQuantizer(std::vector<double> splits);

  /// Bucket index of `value` in [0, num_buckets).
  int BucketOf(double value) const;

  /// Batch BucketOf: fills `out[i]` with the bucket index of `values[i]`
  /// for the whole span in one dispatched kernel call (simd::BucketSearch;
  /// a branchless predicated scan on AVX2 hosts). Result and metric
  /// effects are bit-identical to calling BucketOf per element. `out`
  /// must hold `values.size()` entries (caller-owned so the encode hot
  /// path reuses one scratch buffer across calls); requires
  /// num_buckets() <= 65536 so indexes fit uint16.
  void BucketsOf(std::span<const double> values, uint16_t* out) const;

  /// Representative (mean) value of `bucket`.
  double MeanOf(int bucket) const { return means_[bucket]; }

  /// Quantizes in one step: MeanOf(BucketOf(value)).
  double Quantize(double value) const { return MeanOf(BucketOf(value)); }

  int num_buckets() const { return static_cast<int>(means_.size()); }
  const std::vector<double>& splits() const { return splits_; }
  const std::vector<double>& means() const { return means_; }

  /// Serializes only what decoding needs: the bucket means, as float32
  /// (4q bytes; §3.5 counts 8q for doubles). A mean beyond float's range
  /// is written as +-FLT_MAX, so every finite input decodes finite.
  void SerializeMeans(common::ByteWriter* writer) const;

  /// Reads back a means-only quantizer usable for MeanOf (not BucketOf).
  /// A non-finite mean is CorruptedData: SerializeMeans never writes one.
  static common::Status DeserializeMeans(common::ByteReader* reader,
                                         QuantileBucketQuantizer* out);

 private:
  QuantileBucketQuantizer() = default;

  std::vector<double> splits_;  // Ascending, size num_buckets + 1 (encoder).
  std::vector<double> means_;   // Size num_buckets.
};

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_QUANTILE_BUCKET_QUANTIZER_H_
