#ifndef SKETCHML_SKETCH_QUANTILE_SKETCH_H_
#define SKETCHML_SKETCH_QUANTILE_SKETCH_H_

#include <cstdint>
#include <vector>

namespace sketchml::sketch {

/// Streaming quantile estimator (§2.3).
///
/// A quantile sketch summarizes a single pass over comparable items with a
/// small data structure and answers rank queries `q ∈ [0, 1]`: `Quantile(0.5)`
/// estimates the median, `Quantile(0.01)` the 1st percentile. SketchML uses
/// one to place gradient values into equal-population buckets (§3.2).
class QuantileSketch {
 public:
  virtual ~QuantileSketch() = default;

  /// Inserts one item.
  virtual void Update(double value) = 0;

  /// Number of items inserted so far.
  virtual uint64_t Count() const = 0;

  /// Returns an estimate of the item at rank `q * Count()`. `q` is clamped
  /// to [0, 1]. Undefined when the sketch is empty (checked).
  virtual double Quantile(double q) const = 0;

  /// Exact minimum and maximum of the stream (all implementations track
  /// these losslessly, as DataSketches does).
  virtual double Min() const = 0;
  virtual double Max() const = 0;

  /// Inserts every element of `values`, in order. Virtual so a sketch can
  /// insert in blocks; overrides must leave exactly the state the per-item
  /// `Update` loop (the default) would.
  virtual void UpdateAll(const std::vector<double>& values);

  /// Returns the `q+1` split points {Quantile(0), Quantile(1/q), ...,
  /// Quantile(1)} used by quantile-bucket quantification (§3.2 step 1).
  /// `num_splits` is the paper's `q`; the result has `num_splits + 1`
  /// strictly non-decreasing entries with exact min/max at the ends.
  /// Virtual so sketches can answer all `q` ranks from one sorted pass;
  /// overrides must return exactly what the default implementation would.
  virtual std::vector<double> EqualDepthSplits(int num_splits) const;
};

}  // namespace sketchml::sketch

#endif  // SKETCHML_SKETCH_QUANTILE_SKETCH_H_
