#include "ml/optimizer.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"

namespace sketchml::ml {

namespace {

void WriteVector(const DenseVector& vec, common::ByteWriter* writer) {
  writer->WriteVarint(vec.size());
  for (double v : vec) writer->WriteDouble(v);
}

/// Reads a vector written by WriteVector into `out`, requiring exactly
/// `expected` elements. `out` is untouched unless the whole read
/// succeeds, so a corrupted checkpoint can never half-overwrite state.
common::Status ReadVector(common::ByteReader* reader, size_t expected,
                          DenseVector* out) {
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&count));
  if (count != expected) {
    return common::Status::CorruptedData(
        "optimizer state dimension mismatch: blob has " +
        std::to_string(count) + " values, optimizer expects " +
        std::to_string(expected));
  }
  if (count * sizeof(double) > reader->remaining()) {
    return common::Status::CorruptedData("optimizer state truncated");
  }
  DenseVector values(count);
  for (uint64_t i = 0; i < count; ++i) {
    SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&values[i]));
  }
  *out = std::move(values);
  return common::Status::Ok();
}

}  // namespace

void Optimizer::SaveState(common::ByteWriter* writer) const {
  WriteVector(weights_, writer);
}

common::Status Optimizer::RestoreState(common::ByteReader* reader) {
  return ReadVector(reader, weights_.size(), &weights_);
}

void SgdOptimizer::Apply(const common::SparseGradient& grad) {
  for (const auto& pair : grad) {
    weights_[pair.key] -= learning_rate_ * pair.value;
  }
}

AdamOptimizer::AdamOptimizer(uint64_t dim, double learning_rate, double beta1,
                             double beta2, double epsilon)
    : Optimizer(dim),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      m_(dim, 0.0),
      v_(dim, 0.0) {
  SKETCHML_CHECK(beta1 >= 0 && beta1 < 1);
  SKETCHML_CHECK(beta2 >= 0 && beta2 < 1);
}

void AdamOptimizer::Apply(const common::SparseGradient& grad) {
  ++step_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_));
  for (const auto& pair : grad) {
    const uint64_t k = pair.key;
    const double g = pair.value;
    m_[k] = beta1_ * m_[k] + (1.0 - beta1_) * g;
    v_[k] = beta2_ * v_[k] + (1.0 - beta2_) * g * g;
    const double m_hat = m_[k] / bias1;
    const double v_hat = v_[k] / bias2;
    weights_[k] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

void AdamOptimizer::SaveState(common::ByteWriter* writer) const {
  WriteVector(weights_, writer);  // What Optimizer::SaveState writes.
  writer->WriteVarint(step_);
  WriteVector(m_, writer);
  WriteVector(v_, writer);
}

common::Status AdamOptimizer::RestoreState(common::ByteReader* reader) {
  // Every field parses before any is assigned: a failure changes nothing.
  DenseVector weights, m, v;
  uint64_t step = 0;
  SKETCHML_RETURN_IF_ERROR(ReadVector(reader, weights_.size(), &weights));
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&step));
  SKETCHML_RETURN_IF_ERROR(ReadVector(reader, m_.size(), &m));
  SKETCHML_RETURN_IF_ERROR(ReadVector(reader, v_.size(), &v));
  weights_ = std::move(weights);
  step_ = step;
  m_ = std::move(m);
  v_ = std::move(v);
  return common::Status::Ok();
}

}  // namespace sketchml::ml
