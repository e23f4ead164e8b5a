#include "ml/gradient.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace sketchml::ml {

namespace {

/// The calling thread's gradient accumulator, clean and sized to `dim`
/// keys. One per thread: the trainer computes worker gradients
/// concurrently on its pool, and every caller drains it with
/// `DrainGradient` before returning, so it is clean when handed out again.
common::KeyAccumulator& ThreadGradientAccumulator(size_t dim) {
  thread_local common::KeyAccumulator acc;
  acc.Resize(dim);
  return acc;
}

/// Drains `acc` into the sorted batch gradient: adds the lazy ℓ2 term
/// `lambda * w[key]` to every touched key and drops exact zeros.
common::SparseGradient DrainGradient(common::KeyAccumulator* acc,
                                     const DenseVector& w, double lambda) {
  common::SparseGradient grad;
  grad.reserve(acc->touched());
  acc->Drain([&](uint64_t key, double value) {
    const double with_reg = value + lambda * w[key];
    if (with_reg != 0.0) grad.push_back({key, with_reg});
  });
  return grad;
}

}  // namespace

common::SparseGradient ComputeBatchGradient(const Loss& loss,
                                            const DenseVector& w,
                                            const Dataset& data, size_t begin,
                                            size_t end, double lambda) {
  SKETCHML_CHECK_LE(begin, end);
  SKETCHML_CHECK_LE(end, data.size());
  common::KeyAccumulator& acc = ThreadGradientAccumulator(w.size());
  const double inv_batch = end > begin ? 1.0 / (end - begin) : 0.0;
  for (size_t i = begin; i < end; ++i) {
    const Instance& x = data.instances()[i];
    const double margin = Dot(w, x);
    const double scale = loss.PointGradientScale(margin, x.label) * inv_batch;
    if (scale == 0.0) continue;
    for (const auto& f : x.features) {
      acc.Add(f.index, scale * static_cast<double>(f.value));
    }
  }
  return DrainGradient(&acc, w, lambda);
}

double ComputeMeanLoss(const Loss& loss, const DenseVector& w,
                       const Dataset& data, double lambda,
                       common::ThreadPool* pool) {
  const size_t n = data.size();
  if (n == 0) return 0.0;
  const size_t chunks =
      pool != nullptr ? static_cast<size_t>(pool->num_threads()) : 1;
  std::vector<double> point_loss(n);
  {
    std::vector<common::TaskFuture<void>> tasks;
    tasks.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      auto chunk = [&, lo = n * c / chunks, hi = n * (c + 1) / chunks] {
        for (size_t i = lo; i < hi; ++i) {
          const Instance& x = data.instances()[i];
          point_loss[i] = loss.PointLoss(Dot(w, x), x.label);
        }
      };
      tasks.push_back(pool != nullptr ? pool->Submit(std::move(chunk))
                                      : common::Deferred(std::move(chunk)));
    }
    // Newest first: the pool starts tasks in FIFO order, so the caller
    // most likely claims a chunk no worker has started yet.
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) it->Get();
  }
  double total = 0.0;
  for (const double point : point_loss) total += point;
  double reg = 0.0;
  if (lambda > 0.0) {
    for (double wi : w) reg += wi * wi;
    reg *= lambda / 2.0;
  }
  return total / static_cast<double>(n) + reg;
}

double ComputeAccuracy(const DenseVector& w, const Dataset& data) {
  if (data.size() == 0) return 0.0;
  size_t correct = 0;
  for (const auto& x : data.instances()) {
    const double margin = Dot(w, x);
    if ((margin >= 0 ? 1.0 : -1.0) == x.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace sketchml::ml
