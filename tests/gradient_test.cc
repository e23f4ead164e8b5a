#include "ml/gradient.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::ml {
namespace {

// The batch gradient as a hash map filled in instance order and then
// sorted: the accumulator-free formulation, kept as the oracle that
// ComputeBatchGradient must reproduce exactly.
common::SparseGradient HashMapGradient(const Loss& loss, const DenseVector& w,
                                       const Dataset& data, size_t begin,
                                       size_t end, double lambda) {
  std::unordered_map<uint32_t, double> acc;
  const double inv_batch = end > begin ? 1.0 / (end - begin) : 0.0;
  for (size_t i = begin; i < end; ++i) {
    const Instance& x = data.instances()[i];
    const double scale =
        loss.PointGradientScale(Dot(w, x), x.label) * inv_batch;
    if (scale == 0.0) continue;
    for (const auto& f : x.features) {
      acc[f.index] += scale * static_cast<double>(f.value);
    }
  }
  common::SparseGradient grad;
  for (const auto& [key, value] : acc) {
    const double with_reg = value + lambda * w[key];
    if (with_reg != 0.0) grad.push_back({key, with_reg});
  }
  common::SortByKey(&grad);
  return grad;
}

Dataset MakeData(uint64_t dim, uint64_t seed, bool regression = false) {
  SyntheticConfig config;
  config.num_instances = 600;
  config.dim = dim;
  config.avg_nnz = 25;
  config.regression = regression;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DenseVector RandomWeights(uint64_t dim, double sigma, uint64_t seed) {
  common::Rng rng(seed);
  DenseVector w(dim);
  for (auto& x : w) x = rng.NextGaussian() * sigma;
  return w;
}

TEST(GradientTest, MatchesHashMapOracleExactly) {
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 600}, {100, 160}, {599, 600}, {42, 42}};
  for (const std::string name : {"lr", "svm", "linear"}) {
    const auto loss = MakeLoss(name);
    for (const uint64_t dim : {uint64_t{1} << 9, uint64_t{1} << 14}) {
      const Dataset data = MakeData(dim, dim + 3, name == "linear");
      // Large weights push most hinge margins past 1, where the point
      // gradient scale is exactly zero and the instance is skipped.
      const DenseVector w = RandomWeights(dim, name == "svm" ? 2.0 : 0.1, 5);
      size_t zero_scale = 0;
      for (const Instance& x : data.instances()) {
        zero_scale += loss->PointGradientScale(Dot(w, x), x.label) == 0.0;
      }
      if (name == "svm") {
        EXPECT_GT(zero_scale, 0u);
      }
      for (const double lambda : {0.0, 0.01}) {
        for (const auto& [begin, end] : ranges) {
          EXPECT_EQ(ComputeBatchGradient(*loss, w, data, begin, end, lambda),
                    HashMapGradient(*loss, w, data, begin, end, lambda))
              << name << " dim=" << dim << " lambda=" << lambda << " ["
              << begin << ", " << end << ")";
        }
      }
    }
  }
}

TEST(GradientTest, AlternatingDimsOnOneThread) {
  // One thread's accumulator is resized on every call; each call must see
  // it clean, whichever dim the previous call used.
  const auto loss = MakeLoss("lr");
  const Dataset small = MakeData(1 << 8, 11);
  const Dataset large = MakeData(1 << 15, 13);
  const DenseVector w_small = RandomWeights(small.dim(), 0.1, 17);
  const DenseVector w_large = RandomWeights(large.dim(), 0.1, 19);
  for (int round = 0; round < 6; ++round) {
    const size_t begin = static_cast<size_t>(round) * 90;
    const bool use_large = round % 2 == 1;
    const Dataset& data = use_large ? large : small;
    const DenseVector& w = use_large ? w_large : w_small;
    EXPECT_EQ(ComputeBatchGradient(*loss, w, data, begin, begin + 90, 0.01),
              HashMapGradient(*loss, w, data, begin, begin + 90, 0.01))
        << "round " << round;
  }
}

TEST(GradientTest, ConcurrentCallsFromThreadPool) {
  const auto loss = MakeLoss("lr");
  const Dataset small = MakeData(1 << 10, 23);
  const Dataset large = MakeData(1 << 14, 29);
  const DenseVector w_small = RandomWeights(small.dim(), 0.1, 31);
  const DenseVector w_large = RandomWeights(large.dim(), 0.1, 37);
  struct Call {
    const Dataset* data;
    const DenseVector* w;
    size_t begin;
    size_t end;
  };
  std::vector<Call> calls;
  for (size_t i = 0; i < 40; ++i) {
    const bool use_large = i % 3 == 0;
    const size_t begin = (i * 37) % 500;
    calls.push_back({use_large ? &large : &small,
                     use_large ? &w_large : &w_small, begin,
                     begin + 20 + i % 80});
  }
  common::ThreadPool pool(4);
  std::vector<common::TaskFuture<common::SparseGradient>> futures;
  for (const Call& call : calls) {
    futures.push_back(pool.Submit([&loss, call] {
      return ComputeBatchGradient(*loss, *call.w, *call.data, call.begin,
                                  call.end, 0.01);
    }));
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    const Call& call = calls[i];
    EXPECT_EQ(futures[i].Get(),
              HashMapGradient(*loss, *call.w, *call.data, call.begin,
                              call.end, 0.01))
        << "call " << i;
  }
}

// The serial left fold ComputeMeanLoss must reproduce bit for bit: each
// point loss added in instance order, then the mean plus the ℓ2 term.
double LeftFoldMeanLoss(const Loss& loss, const DenseVector& w,
                        const Dataset& data, double lambda) {
  if (data.size() == 0) return 0.0;
  double total = 0.0;
  for (const Instance& x : data.instances()) {
    total += loss.PointLoss(Dot(w, x), x.label);
  }
  double reg = 0.0;
  if (lambda > 0.0) {
    for (double wi : w) reg += wi * wi;
    reg *= lambda / 2.0;
  }
  return total / static_cast<double>(data.size()) + reg;
}

TEST(GradientTest, MeanLossMatchesSerialLeftFoldWithAnyPool) {
  // Sizes: empty, one instance, fewer instances than an 8-thread pool's
  // chunks, a count no chunk count divides, and one large enough that a
  // chunk-wise partial sum would round differently.
  SyntheticConfig config;
  config.num_instances = 5003;
  config.dim = 1 << 12;
  config.avg_nnz = 25;
  config.seed = 41;
  const Dataset all = GenerateSynthetic(config);
  const DenseVector w = RandomWeights(all.dim(), 0.3, 43);
  std::vector<std::unique_ptr<common::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const int threads : {1, 2, 8}) {
    pools.push_back(std::make_unique<common::ThreadPool>(threads));
  }
  for (const std::string name : {"lr", "svm"}) {
    const auto loss = MakeLoss(name);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{37},
                           all.size()}) {
      const Dataset data(std::vector<Instance>(all.instances().begin(),
                                               all.instances().begin() + n),
                         all.dim());
      for (const double lambda : {0.0, 0.01}) {
        const double expected = LeftFoldMeanLoss(*loss, w, data, lambda);
        for (const auto& pool : pools) {
          EXPECT_EQ(ComputeMeanLoss(*loss, w, data, lambda, pool.get()),
                    expected)
              << name << " n=" << n << " lambda=" << lambda << " threads="
              << (pool ? pool->num_threads() : 0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sketchml::ml
