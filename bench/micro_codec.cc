// Micro-benchmarks (google-benchmark) for the gradient codecs: encode /
// decode throughput and byte output per codec, plus the delta-binary vs
// bitmap key-encoding ablation (Appendix A.3).

#include <benchmark/benchmark.h>

#include <set>
#include <vector>

#include "bench/level_pin.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/sparse.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "core/codec_factory.h"

namespace {

using namespace sketchml;

common::SparseGradient MakeGradient(size_t d, uint64_t dim, uint64_t seed) {
  common::Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < d) keys.insert(rng.NextBounded(dim));
  common::SparseGradient grad;
  for (uint64_t k : keys) {
    const double v = rng.NextBernoulli(0.9) ? rng.NextGaussian() * 0.01
                                            : rng.NextGaussian() * 0.3;
    grad.push_back({k, v});
  }
  return grad;
}

void BM_Encode(benchmark::State& state, const char* name) {
  auto codec = std::move(core::MakeCodec(name)).value();
  const auto grad = MakeGradient(1 << 15, 1 << 22, 3);
  compress::EncodedGradient msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Encode(grad, &msg));
  }
  state.SetItemsProcessed(state.iterations() * grad.size());
  state.counters["bytes/pair"] =
      static_cast<double>(msg.size()) / static_cast<double>(grad.size());
}

// 2^15 pairs over `dim` keys. At 2^22 keys SketchML decode orders its key
// runs by merging; at 2^16 (kdd12's density) by rank placement.
void BM_Decode(benchmark::State& state, const char* name, uint64_t dim) {
  auto codec = std::move(core::MakeCodec(name)).value();
  const auto grad = MakeGradient(1 << 15, dim, 3);
  compress::EncodedGradient msg;
  if (!codec->Encode(grad, &msg).ok()) state.SkipWithError("encode failed");
  common::SparseGradient decoded;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decode(msg, &decoded));
  }
  state.SetItemsProcessed(state.iterations() * grad.size());
}

BENCHMARK_CAPTURE(BM_Encode, adam_double, "adam-double");
BENCHMARK_CAPTURE(BM_Encode, adam_key, "adam+key");
BENCHMARK_CAPTURE(BM_Encode, adam_key_quan, "adam+key+quan");
BENCHMARK_CAPTURE(BM_Encode, sketchml, "sketchml");
BENCHMARK_CAPTURE(BM_Encode, zipml16, "zipml-16bit");
BENCHMARK_CAPTURE(BM_Encode, onebit, "onebit");
BENCHMARK_CAPTURE(BM_Encode, qsgd, "qsgd");
BENCHMARK_CAPTURE(BM_Encode, huffman, "huffman");
BENCHMARK_CAPTURE(BM_Encode, rle, "rle");
BENCHMARK_CAPTURE(BM_Decode, adam_double, "adam-double", 1 << 22);
BENCHMARK_CAPTURE(BM_Decode, sketchml, "sketchml", 1 << 22);
BENCHMARK_CAPTURE(BM_Decode, sketchml_dense, "sketchml", 1 << 16);
BENCHMARK_CAPTURE(BM_Decode, zipml16, "zipml-16bit", 1 << 22);

void BM_DeltaBinaryKeys(benchmark::State& state) {
  const auto grad =
      MakeGradient(static_cast<size_t>(state.range(0)), 1 << 22, 5);
  const auto keys = common::Keys(grad);
  for (auto _ : state) {
    common::ByteWriter writer;
    benchmark::DoNotOptimize(
        compress::DeltaBinaryKeyCodec::Encode(keys, &writer));
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.counters["bytes/key"] =
      static_cast<double>(compress::DeltaBinaryKeyCodec::EncodedSize(keys)) /
      static_cast<double>(keys.size());
}
BENCHMARK(BM_DeltaBinaryKeys)->Arg(1 << 12)->Arg(1 << 16);

void BM_DeltaBinaryKeysDecode(benchmark::State& state) {
  const auto grad =
      MakeGradient(static_cast<size_t>(state.range(0)), 1 << 22, 5);
  common::ByteWriter writer;
  if (!compress::DeltaBinaryKeyCodec::Encode(common::Keys(grad), &writer)
           .ok()) {
    state.SkipWithError("encode failed");
  }
  std::vector<uint64_t> keys;
  for (auto _ : state) {
    common::ByteReader reader(writer.buffer());
    benchmark::DoNotOptimize(
        compress::DeltaBinaryKeyCodec::Decode(&reader, &keys));
  }
  state.SetItemsProcessed(state.iterations() * grad.size());
}
BENCHMARK(BM_DeltaBinaryKeysDecode)->Arg(1 << 12)->Arg(1 << 16);

// --- Level-pinned kernel benches -----------------------------------------
//
// Each bench pins the dispatch to one level (bench/level_pin.h), so a
// single run reports scalar and AVX2 numbers side by side.

namespace simd = common::simd;
using bench::LevelPin;

void BM_BucketSearch(benchmark::State& state, simd::Level level) {
  LevelPin pin(state, level);
  if (!pin) return;
  const auto grad = MakeGradient(1 << 15, 1 << 22, 3);
  const auto values = common::Values(grad);
  const auto quantizer = compress::QuantileBucketQuantizer::Build(
      values, static_cast<int>(state.range(0)));
  std::vector<uint16_t> out(values.size());
  for (auto _ : state) {
    quantizer.BucketsOf(values, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK_CAPTURE(BM_BucketSearch, scalar, simd::Level::kScalar)
    ->Arg(16)->Arg(256);
BENCHMARK_CAPTURE(BM_BucketSearch, avx2, simd::Level::kAvx2)
    ->Arg(16)->Arg(256);

void BM_HashBuckets(benchmark::State& state, simd::Level level) {
  LevelPin pin(state, level);
  if (!pin) return;
  const auto grad = MakeGradient(1 << 15, 1 << 22, 3);
  const auto keys = common::Keys(grad);
  std::vector<uint32_t> out(keys.size());
  for (auto _ : state) {
    simd::HashBuckets(keys.data(), keys.size(), /*seed=*/13,
                      /*num_buckets=*/96, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK_CAPTURE(BM_HashBuckets, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_HashBuckets, avx2, simd::Level::kAvx2);

void BM_DeltaScan(benchmark::State& state, simd::Level level) {
  LevelPin pin(state, level);
  if (!pin) return;
  const auto grad = MakeGradient(1 << 15, 1 << 22, 3);
  const auto keys = common::Keys(grad);
  std::vector<uint32_t> deltas(keys.size());
  std::vector<uint8_t> widths(keys.size());
  for (auto _ : state) {
    size_t total = 0;
    benchmark::DoNotOptimize(simd::DeltaScan(
        keys.data(), keys.size(), deltas.data(), widths.data(), &total));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK_CAPTURE(BM_DeltaScan, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_DeltaScan, avx2, simd::Level::kAvx2);

void BM_EncodeSketchMlAt(benchmark::State& state, simd::Level level) {
  LevelPin pin(state, level);
  if (!pin) return;
  auto codec = std::move(core::MakeCodec("sketchml")).value();
  const auto grad = MakeGradient(1 << 15, 1 << 22, 3);
  compress::EncodedGradient msg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Encode(grad, &msg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(grad.size()));
}
BENCHMARK_CAPTURE(BM_EncodeSketchMlAt, scalar, simd::Level::kScalar);
BENCHMARK_CAPTURE(BM_EncodeSketchMlAt, avx2, simd::Level::kAvx2);

void BM_BitmapKeys(benchmark::State& state) {
  const auto grad =
      MakeGradient(static_cast<size_t>(state.range(0)), 1 << 22, 5);
  const auto keys = common::Keys(grad);
  for (auto _ : state) {
    common::ByteWriter writer;
    benchmark::DoNotOptimize(
        compress::BitmapKeyCodec::Encode(keys, 1 << 22, &writer));
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.counters["bytes/key"] =
      static_cast<double>(compress::BitmapKeyCodec::EncodedSize(1 << 22)) /
      static_cast<double>(keys.size());
}
BENCHMARK(BM_BitmapKeys)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
