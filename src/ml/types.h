#ifndef SKETCHML_ML_TYPES_H_
#define SKETCHML_ML_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/sparse.h"

namespace sketchml::ml {

/// One feature of a training instance: dimension index and value.
struct Feature {
  uint32_t index = 0;
  float value = 0.0f;
};

/// A sparse training instance with its label. Labels are +1/-1 for
/// classification (LR, SVM) and real-valued for regression.
struct Instance {
  std::vector<Feature> features;  // Sorted by ascending index.
  double label = 0.0;
};

/// Dense model/weight vector.
using DenseVector = std::vector<double>;

/// Sparse dot product <w, x>.
inline double Dot(const DenseVector& w, const Instance& x) {
  double sum = 0.0;
  for (const auto& f : x.features) {
    sum += w[f.index] * static_cast<double>(f.value);
  }
  return sum;
}

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_TYPES_H_
