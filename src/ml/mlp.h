#ifndef SKETCHML_ML_MLP_H_
#define SKETCHML_ML_MLP_H_

#include <cstdint>
#include <vector>

#include "common/sparse.h"
#include "ml/dataset.h"
#include "ml/types.h"

namespace sketchml::ml {

/// Fully-connected neural network with ReLU hidden layers and a softmax
/// cross-entropy output — the Appendix B.3 model (input 20x20, two hidden
/// layers of 600, output 10).
///
/// Parameters live in one flat vector so a whole-model gradient can be
/// expressed as key-value pairs (keys 0..P-1) and pushed through any
/// `GradientCodec`, exactly as the paper applies SketchML to NN models.
class Mlp {
 public:
  /// `layer_sizes` = {input, hidden..., output}; at least 2 entries.
  /// Weights get Xavier-style random init from `seed`.
  Mlp(std::vector<int> layer_sizes, uint64_t seed = 1);

  /// Total parameter count (weights + biases).
  size_t NumParams() const { return params_.size(); }

  // The methods below CHECK that every label they read is a class index
  // in [0, classes). The const ones are safe to call concurrently: their
  // scratch is per thread.

  /// Runs forward + backward over instances [begin, end); stores the mean
  /// gradient in `grad` (its nonzeros, as key-sorted pairs) and returns
  /// the mean cross-entropy loss.
  double ComputeBatchGradient(const Dataset& data, size_t begin, size_t end,
                              common::SparseGradient* grad) const;

  /// Mean cross-entropy loss over `data`.
  double ComputeMeanLoss(const Dataset& data) const;

  /// Top-1 accuracy over `data`.
  double ComputeAccuracy(const Dataset& data) const;

  /// Applies a (possibly decoded/lossy) gradient via plain SGD. Keys must
  /// be strictly increasing, as every decoder emits them, and below
  /// NumParams() (CHECKed).
  void ApplySgd(const common::SparseGradient& grad, double learning_rate);

  std::vector<double>& mutable_params() { return params_; }
  const std::vector<double>& params() const { return params_; }
  const std::vector<int>& layer_sizes() const { return layer_sizes_; }

 private:
  /// Forward pass over instances [begin, begin + rows). Fills `acts` with
  /// each layer's rows x size activation matrix, instance-major, layer l's
  /// at rows * unit_offsets_[l]; the last holds the softmax probabilities.
  void Forward(const Dataset& data, size_t begin, size_t rows,
               std::vector<double>* acts) const;

  // Offset of layer l's weight matrix / bias vector in params_.
  size_t WeightOffset(int layer) const { return weight_offsets_[layer]; }
  size_t BiasOffset(int layer) const { return bias_offsets_[layer]; }

  std::vector<int> layer_sizes_;
  std::vector<size_t> weight_offsets_;
  std::vector<size_t> bias_offsets_;
  std::vector<size_t> unit_offsets_;  // Units in the layers before l.
  std::vector<double> params_;
};

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_MLP_H_
