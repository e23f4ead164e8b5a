// Micro-benchmarks (google-benchmark) for the sketch substrate: insert
// and query throughput of the KLL quantile sketch, Count-Min, and
// MinMaxSketch. Not a paper figure — the engineering baseline that
// shows the encode path is compute-cheap relative to network transfer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "bench/level_pin.h"
#include "common/random.h"
#include "common/simd.h"
#include "compress/quantile_bucket_quantizer.h"
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

// Stream lengths of the codec's sign streams: 3,113 values is a kdd12
// worker stream and 16,296 a kdd12 broadcast one (1,500 to 6,000 spans
// other worker message sizes), 265,000 an mlp-dense one.
void StreamSizes(benchmark::internal::Benchmark* b) {
  for (int n : {1500, 3000, 3113, 6000, 16296, 265000}) b->Arg(n);
}

// Each iteration builds from the next window of a 2 MB pool: the same
// values every time would let the branch predictor learn a comparison
// sort's branches, which no real stream allows.
constexpr size_t kStreamPool = size_t{1} << 18;

// One quantizer build's sketch at the codec's k = 128.
void BM_KllUpdateAll(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pool = GradientMagnitudes(std::max(kStreamPool, 2 * n));
  size_t at = 0;
  for (auto _ : state) {
    sketch::KllSketch sketch(128);
    sketch.UpdateAll(std::span(pool).subspan(at, n));
    benchmark::DoNotOptimize(sketch.Count());
    at = at + 2 * n <= pool.size() ? at + n : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KllUpdateAll)->Apply(StreamSizes);

// The codec's whole quantizer build: the sketch, then its 256 equal-depth
// splits.
void BM_QuantizerBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto pool = GradientMagnitudes(std::max(kStreamPool, 2 * n));
  size_t at = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::QuantileBucketQuantizer::Build(
        std::span(pool).subspan(at, n), 256, 128));
    at = at + 2 * n <= pool.size() ? at + n : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_QuantizerBuild)->Arg(3113)->Arg(16296);

// The level-0 run sort alone, at the level-0 capacities a k = 128 sketch
// passes through (11 to 128), on each dispatch level. The runs cycle
// through 2 MB of values, so no branch predictor learns them.
constexpr size_t kSortRunPool = size_t{1} << 18;

void BM_SortRunAt(benchmark::State& state, common::simd::Level level) {
  bench::LevelPin pin(state, level);
  if (!pin) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto values = GradientMagnitudes(kSortRunPool);
  std::vector<double> out(n);
  size_t at = 0;
  for (auto _ : state) {
    common::simd::SortRun(values.data() + at, n, out.data());
    benchmark::DoNotOptimize(out.data());
    at = at + 2 * n <= values.size() ? at + n : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
void Level0Sizes(benchmark::internal::Benchmark* b) {
  for (int n : {11, 16, 25, 37, 56, 85, 128}) b->Arg(n);
}
BENCHMARK_CAPTURE(BM_SortRunAt, scalar, common::simd::Level::kScalar)
    ->Apply(Level0Sizes);
BENCHMARK_CAPTURE(BM_SortRunAt, avx2, common::simd::Level::kAvx2)
    ->Apply(Level0Sizes);

// std::sort on the same runs: what level 0's compaction cost before.
void BM_StdSortAt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto values = GradientMagnitudes(kSortRunPool);
  std::vector<double> out(n);
  size_t at = 0;
  for (auto _ : state) {
    std::copy_n(values.data() + at, n, out.data());
    std::sort(out.begin(), out.end());
    benchmark::DoNotOptimize(out.data());
    at = at + 2 * n <= values.size() ? at + n : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_StdSortAt)->Apply(Level0Sizes);

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
