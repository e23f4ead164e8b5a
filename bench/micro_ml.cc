// Micro-benchmarks for the ML substrate: the batch gradient kernel,
// Adam application, loss evaluation, the Fig 14 MLP's batch gradient and
// test loss, and synthetic-data generation throughput. Engineering
// baselines, not paper figures.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "ml/gradient.h"
#include "ml/loss.h"
#include "ml/mlp.h"
#include "ml/optimizer.h"
#include "ml/synthetic.h"

namespace {

using namespace sketchml;

const ml::Dataset& TestData() {
  static const ml::Dataset* data = [] {
    ml::SyntheticConfig config;
    config.num_instances = 20000;
    config.dim = 1 << 17;
    config.avg_nnz = 40;
    config.seed = 3;
    return new ml::Dataset(ml::GenerateSynthetic(config));
  }();
  return *data;
}

ml::DenseVector RandomWeights(uint64_t dim) {
  common::Rng rng(5);
  ml::DenseVector w(dim);
  for (auto& x : w) x = rng.NextGaussian() * 0.1;
  return w;
}

void BM_BatchGradientAos(benchmark::State& state) {
  const auto& data = TestData();
  const auto w = RandomWeights(data.dim());
  ml::LogisticLoss loss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ml::ComputeBatchGradient(loss, w, data, 0, 2000, 0.01));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BatchGradientAos);

void BM_AdamApply(benchmark::State& state) {
  const auto& data = TestData();
  ml::LogisticLoss loss;
  const auto w = RandomWeights(data.dim());
  const auto grad = ml::ComputeBatchGradient(loss, w, data, 0, 2000, 0.01);
  ml::AdamOptimizer opt(data.dim(), 0.05);
  for (auto _ : state) {
    opt.Apply(grad);
  }
  state.SetItemsProcessed(state.iterations() * grad.size());
}
BENCHMARK(BM_AdamApply);

void BM_MeanLoss(benchmark::State& state) {
  const auto& data = TestData();
  const auto w = RandomWeights(data.dim());
  ml::LogisticLoss loss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::ComputeMeanLoss(loss, w, data, 0.01));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_MeanLoss);

// The Fig 14 MLP (400-600-600-10) on the perfbench mlp-dense data:
// 3000 MNIST-like 20x20 instances, batch 60. Dispatch follows
// SKETCHML_SIMD, so run once as is and once with SKETCHML_SIMD=off.
const ml::Dataset& MnistData() {
  static const ml::Dataset* data =
      new ml::Dataset(ml::GenerateSyntheticMnist(3000, 20, 10, 1));
  return *data;
}

void BM_MlpBatchGradient(benchmark::State& state) {
  const auto& data = MnistData();
  const ml::Mlp mlp({400, 600, 600, 10}, 1);
  common::SparseGradient grad;
  size_t begin = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mlp.ComputeBatchGradient(data, begin, begin + 60, &grad));
    begin = (begin + 60) % data.size();
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_MlpBatchGradient)->Unit(benchmark::kMillisecond);

void BM_MlpMeanLoss(benchmark::State& state) {
  const auto& data = MnistData();
  const ml::Mlp mlp({400, 600, 600, 10}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.ComputeMeanLoss(data));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_MlpMeanLoss)->Unit(benchmark::kMillisecond);

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    ml::SyntheticConfig config;
    config.num_instances = 2000;
    config.dim = 1 << 16;
    config.avg_nnz = 40;
    benchmark::DoNotOptimize(ml::GenerateSynthetic(config));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_SyntheticGeneration);

}  // namespace

BENCHMARK_MAIN();
