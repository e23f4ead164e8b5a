#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"

namespace sketchml::ml {

namespace {

/// The class index of `x`; Mlp::Forward checks its range.
int LabelOf(const Instance& x) { return static_cast<int>(x.label); }

/// Instances per forward pass. Bounds the activation scratch (0.8 MB for
/// the Fig 14 net) while one pass shares each weight row across a whole
/// mini-batch.
constexpr size_t kMaxChunk = 64;

/// The calling thread's scratch, retained across calls. `grad` is all
/// zeros between calls: ComputeBatchGradient clears each entry as it
/// drains it.
struct MlpScratch {
  std::vector<double> acts;
  std::vector<double> delta;
  std::vector<double> prev_delta;
  std::vector<double> grad;
};

MlpScratch& ThreadScratch() {
  thread_local MlpScratch scratch;
  return scratch;
}

}  // namespace

Mlp::Mlp(std::vector<int> layer_sizes, uint64_t seed)
    : layer_sizes_(std::move(layer_sizes)) {
  SKETCHML_CHECK_GE(layer_sizes_.size(), 2u);
  size_t offset = 0;
  size_t units = 0;
  const int layers = static_cast<int>(layer_sizes_.size()) - 1;
  for (int l = 0; l < layers; ++l) {
    weight_offsets_.push_back(offset);
    offset += static_cast<size_t>(layer_sizes_[l]) * layer_sizes_[l + 1];
    bias_offsets_.push_back(offset);
    offset += layer_sizes_[l + 1];
  }
  for (const int size : layer_sizes_) {
    unit_offsets_.push_back(units);
    units += size;
  }
  unit_offsets_.push_back(units);
  params_.assign(offset, 0.0);
  common::Rng rng(seed);
  for (int l = 0; l < layers; ++l) {
    const double scale =
        std::sqrt(2.0 / (layer_sizes_[l] + layer_sizes_[l + 1]));
    double* w = params_.data() + WeightOffset(l);
    const size_t count =
        static_cast<size_t>(layer_sizes_[l]) * layer_sizes_[l + 1];
    for (size_t i = 0; i < count; ++i) w[i] = rng.NextGaussian() * scale;
  }
}

void Mlp::Forward(const Dataset& data, size_t begin, size_t rows,
                  std::vector<double>* acts) const {
  const int layers = static_cast<int>(layer_sizes_.size()) - 1;
  acts->resize(rows * unit_offsets_.back());
  const size_t input = layer_sizes_[0];
  double* x = acts->data();
  std::fill(x, x + rows * input, 0.0);
  for (size_t n = 0; n < rows; ++n) {
    const Instance& instance = data.instances()[begin + n];
    // On the double, before any cast: a label past int's range (or NaN)
    // would make the cast undefined.
    SKETCHML_CHECK(instance.label >= 0 && instance.label < layer_sizes_.back())
        << "label " << instance.label << " outside [0, "
        << layer_sizes_.back() << ")";
    // A fractional label would train as its floor.
    SKETCHML_CHECK_EQ(instance.label, std::trunc(instance.label))
        << "label " << instance.label << " is not a class index";
    for (const auto& f : instance.features) {
      if (f.index < input) x[n * input + f.index] = f.value;
    }
  }

  for (int l = 0; l < layers; ++l) {
    const size_t in = layer_sizes_[l];
    const size_t out = layer_sizes_[l + 1];
    double* y = x + rows * in;
    common::simd::DenseForward(x, params_.data() + WeightOffset(l),
                               params_.data() + BiasOffset(l), rows, in, out,
                               y);
    if (l + 1 < layers) {
      for (size_t k = 0; k < rows * out; ++k) y[k] = std::max(0.0, y[k]);
    }
    x = y;
  }

  // Softmax on each instance's output row.
  const size_t classes = layer_sizes_.back();
  for (size_t n = 0; n < rows; ++n) {
    double* row = x + n * classes;
    const double max_logit = *std::max_element(row, row + classes);
    double denom = 0.0;
    for (size_t j = 0; j < classes; ++j) {
      row[j] = std::exp(row[j] - max_logit);
      denom += row[j];
    }
    for (size_t j = 0; j < classes; ++j) row[j] /= denom;
  }
}

double Mlp::ComputeBatchGradient(const Dataset& data, size_t begin,
                                 size_t end,
                                 common::SparseGradient* grad) const {
  SKETCHML_CHECK_LT(begin, end);
  SKETCHML_CHECK_LE(end, data.size());
  const int layers = static_cast<int>(layer_sizes_.size()) - 1;
  const size_t classes = layer_sizes_.back();
  MlpScratch& scratch = ThreadScratch();
  scratch.grad.resize(params_.size());
  double* flat = scratch.grad.data();
  double total_loss = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(end - begin);

  for (size_t chunk = begin; chunk < end; chunk += kMaxChunk) {
    const size_t rows = std::min(kMaxChunk, end - chunk);
    Forward(data, chunk, rows, &scratch.acts);
    const double* probs =
        scratch.acts.data() + rows * unit_offsets_[layers];
    // delta = dL/dz for the current layer's pre-activations.
    scratch.delta.assign(probs, probs + rows * classes);
    for (size_t n = 0; n < rows; ++n) {
      const int label = LabelOf(data.instances()[chunk + n]);
      total_loss += -std::log(std::max(probs[n * classes + label], 1e-12));
      scratch.delta[n * classes + label] -= 1.0;
    }

    for (int l = layers - 1; l >= 0; --l) {
      const size_t in = layer_sizes_[l];
      const size_t out = layer_sizes_[l + 1];
      const double* input = scratch.acts.data() + rows * unit_offsets_[l];
      common::simd::DenseWeightGradient(input, scratch.delta.data(), rows, in,
                                        out, inv_batch,
                                        flat + WeightOffset(l),
                                        flat + BiasOffset(l));
      if (l > 0) {
        scratch.prev_delta.resize(rows * in);
        common::simd::DenseBackprop(params_.data() + WeightOffset(l),
                                    scratch.delta.data(), input, rows, in,
                                    out, scratch.prev_delta.data());
        scratch.delta.swap(scratch.prev_delta);
      }
    }
  }

  grad->clear();
  grad->reserve(params_.size());
  for (size_t k = 0; k < params_.size(); ++k) {
    if (flat[k] != 0.0) grad->push_back({k, flat[k]});
    flat[k] = 0.0;
  }
  return total_loss * inv_batch;
}

double Mlp::ComputeMeanLoss(const Dataset& data) const {
  if (data.size() == 0) return 0.0;
  const int layers = static_cast<int>(layer_sizes_.size()) - 1;
  const size_t classes = layer_sizes_.back();
  std::vector<double>& acts = ThreadScratch().acts;
  double total = 0.0;
  for (size_t chunk = 0; chunk < data.size(); chunk += kMaxChunk) {
    const size_t rows = std::min(kMaxChunk, data.size() - chunk);
    Forward(data, chunk, rows, &acts);
    const double* probs = acts.data() + rows * unit_offsets_[layers];
    for (size_t n = 0; n < rows; ++n) {
      const int label = LabelOf(data.instances()[chunk + n]);
      total += -std::log(std::max(probs[n * classes + label], 1e-12));
    }
  }
  return total / static_cast<double>(data.size());
}

double Mlp::ComputeAccuracy(const Dataset& data) const {
  if (data.size() == 0) return 0.0;
  const int layers = static_cast<int>(layer_sizes_.size()) - 1;
  const size_t classes = layer_sizes_.back();
  std::vector<double>& acts = ThreadScratch().acts;
  size_t correct = 0;
  for (size_t chunk = 0; chunk < data.size(); chunk += kMaxChunk) {
    const size_t rows = std::min(kMaxChunk, data.size() - chunk);
    Forward(data, chunk, rows, &acts);
    const double* probs = acts.data() + rows * unit_offsets_[layers];
    for (size_t n = 0; n < rows; ++n) {
      const double* row = probs + n * classes;
      const int predicted =
          static_cast<int>(std::max_element(row, row + classes) - row);
      if (predicted == LabelOf(data.instances()[chunk + n])) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

void Mlp::ApplySgd(const common::SparseGradient& grad, double learning_rate) {
  if (grad.empty()) return;
  // Decoders emit strictly increasing keys, so the last key bounds them all.
  SKETCHML_DCHECK(common::IsSortedByKey(grad));
  SKETCHML_CHECK_LT(grad.back().key, params_.size())
      << "gradient key " << grad.back().key << " past " << params_.size()
      << " parameters";
  for (const auto& pair : grad) {
    params_[pair.key] -= learning_rate * pair.value;
  }
}

}  // namespace sketchml::ml
