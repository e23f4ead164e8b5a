#ifndef SKETCHML_ML_OPTIMIZER_H_
#define SKETCHML_ML_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/byte_buffer.h"
#include "common/sparse.h"
#include "common/status.h"
#include "ml/types.h"

namespace sketchml::ml {

/// A first-order optimizer owning a dense weight vector and consuming
/// sparse gradients.
class Optimizer {
 public:
  explicit Optimizer(uint64_t dim) : weights_(dim, 0.0) {}
  virtual ~Optimizer() = default;

  virtual std::string Name() const = 0;

  /// Applies one sparse gradient step.
  virtual void Apply(const common::SparseGradient& grad) = 0;

  const DenseVector& weights() const { return weights_; }
  DenseVector& mutable_weights() { return weights_; }

  /// Serializes the optimizer's full mutable state (checkpoint seam).
  /// The base captures the weight vector as varint dim + raw doubles;
  /// stateful optimizers append their moments/counters. Hyperparameters
  /// are configuration, not state — the caller reconstructs the optimizer
  /// and replays state into it.
  virtual void SaveState(common::ByteWriter* writer) const;

  /// Restores state written by `SaveState` on an optimizer of the same
  /// kind and dimension. Input may come from a corrupted checkpoint:
  /// dimension mismatches and truncation surface kCorruptedData, and a
  /// failed restore changes nothing (every field parses before any is
  /// assigned).
  [[nodiscard]] virtual common::Status RestoreState(
      common::ByteReader* reader);

 protected:
  DenseVector weights_;
};

/// Plain SGD: w -= eta * g.
class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(uint64_t dim, double learning_rate)
      : Optimizer(dim), learning_rate_(learning_rate) {}

  std::string Name() const override { return "sgd"; }
  void Apply(const common::SparseGradient& grad) override;

  double learning_rate() const { return learning_rate_; }

 private:
  double learning_rate_;
};

/// Adam [27], the paper's optimizer for every experiment (§4.1) and the
/// compensation for MinMaxSketch's decayed gradients (§3.3 Solution 2):
/// the per-dimension effective step eta/sqrt(v_t) grows when a dimension's
/// gradients shrink, counteracting systematic underestimation.
///
/// Sparse "lazy" variant: first and second moments update only on touched
/// dimensions; bias correction uses a global step count.
class AdamOptimizer : public Optimizer {
 public:
  /// Paper settings: beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8.
  AdamOptimizer(uint64_t dim, double learning_rate, double beta1 = 0.9,
                double beta2 = 0.999, double epsilon = 1e-8);

  std::string Name() const override { return "adam"; }
  void Apply(const common::SparseGradient& grad) override;

  uint64_t step() const { return step_; }

  /// Base weights, then step count and both moment vectors.
  void SaveState(common::ByteWriter* writer) const override;
  [[nodiscard]] common::Status RestoreState(
      common::ByteReader* reader) override;

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  uint64_t step_ = 0;
  DenseVector m_;  // First moment.
  DenseVector v_;  // Second moment.
};

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_OPTIMIZER_H_
