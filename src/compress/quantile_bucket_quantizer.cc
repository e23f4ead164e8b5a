#include "compress/quantile_bucket_quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/simd.h"
#include "sketch/kll_sketch.h"

namespace sketchml::compress {

QuantileBucketQuantizer QuantileBucketQuantizer::Build(
    std::span<const double> values, int num_buckets, int sketch_k,
    uint64_t seed) {
  SKETCHML_CHECK(!values.empty());
  SKETCHML_CHECK_GT(num_buckets, 0);
  sketch::KllSketch sketch(sketch_k, seed);
  sketch.UpdateAll(values);
  return QuantileBucketQuantizer(sketch.EqualDepthSplits(num_buckets));
}

QuantileBucketQuantizer::QuantileBucketQuantizer(std::vector<double> splits)
    : splits_(std::move(splits)) {
  SKETCHML_CHECK_GE(splits_.size(), 2u);
  SKETCHML_CHECK(std::is_sorted(splits_.begin(), splits_.end()));
  means_.reserve(splits_.size() - 1);
  for (size_t i = 0; i + 1 < splits_.size(); ++i) {
    // Two finite splits near DBL_MAX can overflow the sum; halving each
    // first keeps the mean finite, and the sum is used wherever it is.
    const double a = splits_[i];
    const double b = splits_[i + 1];
    const double sum = a + b;
    means_.push_back(std::isfinite(sum) ? 0.5 * sum : 0.5 * a + 0.5 * b);
  }
  // Midpoints of sorted split intervals must themselves be monotone;
  // a violation means the split computation produced a non-bucket.
  SKETCHML_DCHECK(std::is_sorted(means_.begin(), means_.end()));
}

int QuantileBucketQuantizer::BucketOf(double value) const {
  SKETCHML_CHECK(!splits_.empty()) << "means-only quantizer cannot bucket";
  // Bucket i covers [splits_[i], splits_[i+1]); the last bucket is closed
  // above so the maximum lands in bucket num_buckets-1.
  const auto it = std::upper_bound(splits_.begin(), splits_.end(), value);
  int idx = static_cast<int>(it - splits_.begin()) - 1;
  const int clamped = std::clamp(idx, 0, num_buckets() - 1);
  // Bucket-interval contract: value sits in [splits[i], splits[i+1])
  // whenever it was not clamped to an extreme bucket.
  SKETCHML_DCHECK(clamped != idx || (splits_[clamped] <= value &&
                                     (clamped + 1 == num_buckets() ||
                                      value < splits_[clamped + 1])));
  if (clamped != idx && obs::MetricsEnabled()) {
    // A clamp means the value fell outside the sketch's learned range —
    // the bucket-overflow event the paper's §3.2 error analysis assumes
    // is rare. Counting it makes that assumption checkable.
    static const obs::Counter overflow =
        obs::MetricsRegistry::Global().GetCounter("quantizer/bucket_overflow");
    overflow.Increment();
  }
  return clamped;
}

void QuantileBucketQuantizer::BucketsOf(std::span<const double> values,
                                        uint16_t* out) const {
  SKETCHML_CHECK(!splits_.empty()) << "means-only quantizer cannot bucket";
  SKETCHML_CHECK_LE(means_.size(), size_t{1} << 16)
      << "batch bucket indexes must fit uint16";
  if (values.empty()) return;
  const size_t clamped = common::simd::BucketSearch(
      splits_.data(), splits_.size(), values.data(), values.size(), out);
#if SKETCHML_DCHECK_ENABLED
  // Batch/scalar equivalence: every index must match the metrics-free
  // per-element search BucketOf is defined by (the counter stays
  // untouched here so checked and release runs publish identical counts).
  for (size_t i = 0; i < values.size(); ++i) {
    const auto it =
        std::upper_bound(splits_.begin(), splits_.end(), values[i]);
    const int idx = static_cast<int>(it - splits_.begin()) - 1;
    SKETCHML_DCHECK_EQ(static_cast<int>(out[i]),
                       std::clamp(idx, 0, num_buckets() - 1));
  }
#endif
  if (clamped > 0 && obs::MetricsEnabled()) {
    // Same lazily-created counter, same total as per-element BucketOf:
    // one overflow event per clamped value (§3.2 rarity assumption).
    static const obs::Counter overflow =
        obs::MetricsRegistry::Global().GetCounter("quantizer/bucket_overflow");
    overflow.Add(static_cast<double>(clamped));
  }
}

void QuantileBucketQuantizer::SerializeMeans(
    common::ByteWriter* writer) const {
  writer->WriteVarint(means_.size());
  // float32 is plenty: the quantization error of the bucket itself is
  // orders of magnitude above float precision, and it halves the fixed
  // per-message header (the paper's 8q term becomes 4q). A mean past
  // float's range saturates at +-FLT_MAX instead of becoming inf.
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  for (double m : means_) {
    writer->WriteFloat(static_cast<float>(std::clamp(m, -kFloatMax, kFloatMax)));
  }
}

common::Status QuantileBucketQuantizer::DeserializeMeans(
    common::ByteReader* reader, QuantileBucketQuantizer* out) {
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&count));
  if (count == 0 || count > reader->remaining() / sizeof(float)) {
    return common::Status::CorruptedData("implausible bucket count");
  }
  QuantileBucketQuantizer q;
  q.means_.resize(count);
  for (auto& m : q.means_) {
    float f = 0.0f;
    SKETCHML_RETURN_IF_ERROR(reader->ReadFloat(&f));
    if (!std::isfinite(f)) {
      return common::Status::CorruptedData("non-finite bucket mean");
    }
    m = f;
  }
  *out = std::move(q);
  return common::Status::Ok();
}

}  // namespace sketchml::compress
