#ifndef SKETCHML_ML_GRADIENT_H_
#define SKETCHML_ML_GRADIENT_H_

#include <cstddef>

#include "common/sparse.h"
#include "ml/dataset.h"
#include "ml/loss.h"
#include "ml/types.h"

namespace sketchml::common {
class ThreadPool;
}  // namespace sketchml::common

namespace sketchml::ml {

/// Computes the mini-batch gradient of `loss` over instances
/// `[begin, end)` of `data` at weights `w`, as sorted key-value pairs —
/// the exact object SketchML compresses (§2.2).
///
/// The ℓ2 term `lambda * w_k` is applied lazily on the touched dimensions
/// only (the standard sparse-SGD treatment); the data term is averaged
/// over the batch.
common::SparseGradient ComputeBatchGradient(const Loss& loss,
                                            const DenseVector& w,
                                            const Dataset& data, size_t begin,
                                            size_t end, double lambda);

/// Mean loss of `w` over all of `data` plus the ℓ2 penalty
/// (lambda/2)||w||^2 over every weight.
///
/// The instances split into one chunk per `pool` thread, each a pool task
/// writing its per-instance losses into one buffer (without a pool, one
/// chunk runs inline). The buffer is then summed in instance order, so
/// the result is bit-identical with or without a pool, at any size.
double ComputeMeanLoss(const Loss& loss, const DenseVector& w,
                       const Dataset& data, double lambda,
                       common::ThreadPool* pool = nullptr);

/// Classification accuracy (sign of margin vs ±1 label) of `w` on `data`.
double ComputeAccuracy(const DenseVector& w, const Dataset& data);

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_GRADIENT_H_
