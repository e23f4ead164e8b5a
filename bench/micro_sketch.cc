// Micro-benchmarks (google-benchmark) for the sketch substrate: insert
// and query throughput of the KLL quantile sketch, Count-Min, and
// MinMaxSketch. Not a paper figure — the engineering baseline that
// shows the encode path is compute-cheap relative to network transfer.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "sketch/count_min_sketch.h"
#include "sketch/grouped_min_max_sketch.h"
#include "sketch/kll_sketch.h"
#include "sketch/min_max_sketch.h"

namespace {

using namespace sketchml;

std::vector<double> RandomValues(size_t n) {
  common::Rng rng(1);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextGaussian();
  return v;
}

void BM_KllUpdate(benchmark::State& state) {
  const auto values = RandomValues(1 << 16);
  for (auto _ : state) {
    sketch::KllSketch sketch(static_cast<int>(state.range(0)));
    for (double v : values) sketch.Update(v);
    benchmark::DoNotOptimize(sketch.Count());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_KllUpdate)->Arg(128)->Arg(256)->Arg(512);

// Gradient-shaped magnitudes, |N(0,1)|^3: the skew of one SketchML sign
// stream.
std::vector<double> GradientMagnitudes(size_t n) {
  common::Rng rng(1);
  std::vector<double> v(n);
  for (auto& x : v) {
    const double g = std::abs(rng.NextGaussian());
    x = g * g * g;
  }
  return v;
}

// One quantizer build's sketch at the codec's k = 128: 3,000 values is a
// kdd12 worker stream, 265,000 an mlp-dense one.
void BM_KllUpdateAll(benchmark::State& state) {
  const auto values = GradientMagnitudes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    sketch::KllSketch sketch(128);
    sketch.UpdateAll(values);
    benchmark::DoNotOptimize(sketch.Count());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_KllUpdateAll)->Arg(3000)->Arg(265000);

void BM_KllQuantile(benchmark::State& state) {
  const auto values = RandomValues(1 << 16);
  sketch::KllSketch sketch(256);
  sketch.UpdateAll(values);
  double q = 0.0;
  for (auto _ : state) {
    q += 0.001;
    if (q >= 1.0) q = 0.0;
    benchmark::DoNotOptimize(sketch.Quantile(q));
  }
}
BENCHMARK(BM_KllQuantile);

void BM_KllEqualDepthSplits(benchmark::State& state) {
  const auto values = RandomValues(1 << 16);
  sketch::KllSketch sketch(256);
  sketch.UpdateAll(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.EqualDepthSplits(256));
  }
}
BENCHMARK(BM_KllEqualDepthSplits);

void BM_CountMinAdd(benchmark::State& state) {
  sketch::CountMinSketch sketch(2, 1 << 16);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Add(key++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd);

void BM_MinMaxInsert(benchmark::State& state) {
  sketch::MinMaxSketch sketch(static_cast<int>(state.range(0)), 1 << 16);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Insert(key, static_cast<uint8_t>(key % 250));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinMaxInsert)->Arg(2)->Arg(4);

void BM_MinMaxQuery(benchmark::State& state) {
  sketch::MinMaxSketch sketch(2, 1 << 16);
  for (uint64_t k = 0; k < (1 << 16); ++k) {
    sketch.Insert(k, static_cast<uint8_t>(k % 250));
  }
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Query(key++ % (1 << 16)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinMaxQuery);

void BM_GroupedMinMaxInsert(benchmark::State& state) {
  sketch::GroupedMinMaxSketch sketch(256, 8, 2, 1 << 14);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Insert(key, static_cast<int>(key % 256));
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupedMinMaxInsert);

}  // namespace

BENCHMARK_MAIN();
