#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <limits>

#include "common/bit_util.h"
#include "common/logging.h"
#include "common/murmur_hash.h"

namespace sketchml::common::simd {
namespace internal {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These define the semantics: the element-at-a-
// time logic the pre-batch code paths used, so `--simd=off` reproduces the
// historical behavior (and performance) exactly.
// ---------------------------------------------------------------------------

// Swaps `a` and `b` when b < a, on their bit patterns: GCC turns a
// ternary on doubles into a jump, which mispredicts on random data.
inline void CompareSelect(double& a, double& b) {
  const uint64_t ua = std::bit_cast<uint64_t>(a);
  const uint64_t ub = std::bit_cast<uint64_t>(b);
  const uint64_t swap = uint64_t{0} - static_cast<uint64_t>(b < a);
  const uint64_t diff = (ua ^ ub) & swap;
  a = std::bit_cast<double>(ua ^ diff);
  b = std::bit_cast<double>(ub ^ diff);
}

void SortBlocks8Scalar(const double* in, size_t blocks, double* out) {
  for (size_t b = 0; b < blocks; ++b) {
    double v[kSortBlock];
    std::copy_n(in + b * kSortBlock, kSortBlock, v);
    SortNetwork8(v, CompareSelect);
    std::copy_n(v, kSortBlock, out + b * kSortBlock);
  }
}

// SortRun's network on positions [0, n): a comparator whose upper position
// is +inf padding never swaps, so it is skipped rather than padded.
void SortRunScalar(const double* in, size_t n, double* out) {
  if (out != in) std::copy_n(in, n, out);
  for (size_t b = 0; b < n; b += kSortBlock) {
    double v[kSortBlock];
    const size_t count = std::min(kSortBlock, n - b);
    std::fill_n(std::copy_n(out + b, count, v), kSortBlock - count,
                std::numeric_limits<double>::infinity());
    SortNetwork8(v, CompareSelect);
    std::copy_n(v, count, out + b);
  }
  const size_t padded = SortRunNetworkSize(n);
  for (size_t w = kSortBlock; w < padded; w *= 2) {
    for (size_t s = 0; s < n; s += 2 * w) {
      // Item i of the pair against item 2w - 1 - i.
      for (size_t i = s + 2 * w > n ? s + 2 * w - n : 0; i < w; ++i) {
        CompareSelect(out[s + i], out[s + 2 * w - 1 - i]);
      }
      for (size_t h = w / 2; h > 0; h /= 2) {
        for (size_t t = s; t + h < std::min(n, s + 2 * w); t += 2 * h) {
          const size_t count = std::min(h, n - t - h);
          for (size_t i = 0; i < count; ++i) {
            CompareSelect(out[t + i], out[t + h + i]);
          }
        }
      }
    }
  }
}

void FoldMinMaxScalar(const double* values, size_t count, double* min,
                      double* max) {
  double lo = *min;
  double hi = *max;
  for (size_t i = 0; i < count; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  *min = lo;
  *max = hi;
}

size_t BucketSearchScalar(const double* splits, size_t num_splits,
                          const double* values, size_t count, uint16_t* out) {
  const int top = static_cast<int>(num_splits) - 2;  // num_buckets - 1
  size_t clamped_count = 0;
  for (size_t i = 0; i < count; ++i) {
    const double* it =
        std::upper_bound(splits, splits + num_splits, values[i]);
    const int idx = static_cast<int>(it - splits) - 1;
    const int clamped = std::clamp(idx, 0, top);
    clamped_count += static_cast<size_t>(clamped != idx);
    out[i] = static_cast<uint16_t>(clamped);
  }
  return clamped_count;
}

void HashBucketsScalar(const uint64_t* keys, size_t count, uint64_t seed,
                       uint64_t num_buckets, uint32_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint32_t>(MurmurMix64(keys[i], seed) % num_buckets);
  }
}

DeltaScanStatus DeltaScanScalar(const uint64_t* keys, size_t count,
                                uint32_t* deltas, uint8_t* widths,
                                size_t* total_delta_bytes) {
  uint64_t previous = 0;
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = keys[i];
    if (i > 0 && key <= previous) return DeltaScanStatus::kNotIncreasing;
    const uint64_t delta = key - previous;
    if (delta > 0xffffffffULL) return DeltaScanStatus::kDeltaTooWide;
    const int nbytes = BytesNeeded(delta);
    deltas[i] = static_cast<uint32_t>(delta);
    widths[i] = static_cast<uint8_t>(nbytes);
    total += static_cast<size_t>(nbytes);
    previous = key;
  }
  *total_delta_bytes = total;
  return DeltaScanStatus::kOk;
}

// The dense-layer kernels are the per-instance loops the MLP ran before it
// batched, one instance after another.

void DenseForwardScalar(const double* x, const double* w, const double* b,
                        size_t rows, size_t in, size_t out, double* y) {
  for (size_t n = 0; n < rows; ++n) {
    const double* xn = x + n * in;
    double* yn = y + n * out;
    for (size_t j = 0; j < out; ++j) yn[j] = b[j];
    for (size_t i = 0; i < in; ++i) {
      const double xi = xn[i];
      if (xi == 0.0) continue;
      const double* row = w + i * out;
      for (size_t j = 0; j < out; ++j) yn[j] += xi * row[j];
    }
  }
}

void DenseWeightGradientScalar(const double* x, const double* d, size_t rows,
                               size_t in, size_t out, double scale,
                               double* gw, double* gb) {
  for (size_t n = 0; n < rows; ++n) {
    const double* xn = x + n * in;
    const double* dn = d + n * out;
    for (size_t j = 0; j < out; ++j) gb[j] += dn[j] * scale;
    for (size_t i = 0; i < in; ++i) {
      const double xi = xn[i];
      if (xi == 0.0) continue;
      double* grow = gw + i * out;
      for (size_t j = 0; j < out; ++j) grow[j] += xi * dn[j] * scale;
    }
  }
}

void DenseBackpropScalar(const double* w, const double* d, const double* act,
                         size_t rows, size_t in, size_t out, double* p) {
  for (size_t n = 0; n < rows; ++n) {
    const double* dn = d + n * out;
    for (size_t i = 0; i < in; ++i) {
      double sum = 0.0;
      if (act[n * in + i] > 0.0) {
        const double* row = w + i * out;
        for (size_t j = 0; j < out; ++j) sum += row[j] * dn[j];
      }
      p[n * in + i] = sum;
    }
  }
}

}  // namespace

const Kernels kScalarKernels = {
    &SortBlocks8Scalar,
    &SortRunScalar,
    &FoldMinMaxScalar,
    &BucketSearchScalar,
    &HashBucketsScalar,
    &DeltaScanScalar,
    &DenseForwardScalar,
    &DenseWeightGradientScalar,
    &DenseBackpropScalar,
};

}  // namespace internal

namespace {

// -1 = not initialized yet; otherwise a Level. Initialization from the
// environment is idempotent, so a benign first-use race just repeats it.
std::atomic<int> g_active_level{-1};

Level LevelFromEnv() {
  const char* env = std::getenv("SKETCHML_SIMD");
  if (env == nullptr || *env == '\0') return DetectedLevel();
  const std::string value(env);
  if (value == "off" || value == "scalar" || value == "0") {
    return Level::kScalar;
  }
  if (value == "avx2") {
    if (LevelSupported(Level::kAvx2)) return Level::kAvx2;
    SKETCHML_LOG(Warning) << "SKETCHML_SIMD=avx2 but AVX2 is unavailable "
                             "on this host/build; using scalar";
    return Level::kScalar;
  }
  if (value != "auto" && value != "on" && value != "1") {
    SKETCHML_LOG(Warning) << "unknown SKETCHML_SIMD value '" << value
                          << "' (expected auto|on|off|scalar|avx2); "
                             "auto-detecting";
  }
  return DetectedLevel();
}

const internal::Kernels& ActiveKernels() {
  return ActiveLevel() == Level::kAvx2 ? *internal::Avx2Kernels()
                                       : internal::kScalarKernels;
}

}  // namespace

const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

Level DetectedLevel() {
  // Checking cpuid *before* touching the AVX2 TU matters: that TU is
  // compiled with AVX2 codegen enabled, so even its accessor must only
  // run on CPUs that have the instructions.
  static const Level detected = [] {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") &&
        internal::Avx2Kernels() != nullptr) {
      return Level::kAvx2;
    }
#endif
    return Level::kScalar;
  }();
  return detected;
}

bool LevelSupported(Level level) {
  return level == Level::kScalar || DetectedLevel() == Level::kAvx2;
}

Level ActiveLevel() {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(LevelFromEnv());
    g_active_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<Level>(level);
}

void SetActiveLevel(Level level) {
  SKETCHML_CHECK(LevelSupported(level))
      << LevelName(level) << " is not supported on this host/build";
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

Status SetActiveLevelFromString(const std::string& name) {
  if (name == "auto" || name == "on" || name == "" || name == "1") {
    SetActiveLevel(DetectedLevel());
    return Status::Ok();
  }
  if (name == "off" || name == "scalar" || name == "0") {
    SetActiveLevel(Level::kScalar);
    return Status::Ok();
  }
  if (name == "avx2") {
    if (!LevelSupported(Level::kAvx2)) {
      return Status::InvalidArgument(
          "--simd=avx2 requested but AVX2 is unavailable on this "
          "host/build");
    }
    SetActiveLevel(Level::kAvx2);
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown simd level '" + name +
                                 "' (expected auto|on|off|scalar|avx2)");
}

void SortBlocks8(const double* in, size_t blocks, double* out) {
  ActiveKernels().sort_blocks8(in, blocks, out);
}

void SortRun(const double* in, size_t n, double* out) {
  ActiveKernels().sort_run(in, n, out);
}

void FoldMinMax(const double* values, size_t count, double* min,
                double* max) {
  ActiveKernels().fold_min_max(values, count, min, max);
}

size_t BucketSearch(const double* splits, size_t num_splits,
                    const double* values, size_t count, uint16_t* out) {
  SKETCHML_DCHECK_GE(num_splits, 2u);
  return ActiveKernels().bucket_search(splits, num_splits, values, count,
                                       out);
}

void HashBuckets(const uint64_t* keys, size_t count, uint64_t seed,
                 uint64_t num_buckets, uint32_t* out) {
  SKETCHML_DCHECK_GE(num_buckets, 1u);
  SKETCHML_DCHECK_LE(num_buckets, uint64_t{1} << 32);
  ActiveKernels().hash_buckets(keys, count, seed, num_buckets, out);
}

DeltaScanStatus DeltaScan(const uint64_t* keys, size_t count,
                          uint32_t* deltas, uint8_t* widths,
                          size_t* total_delta_bytes) {
  return ActiveKernels().delta_scan(keys, count, deltas, widths,
                                    total_delta_bytes);
}

void DenseForward(const double* x, const double* w, const double* b,
                  size_t rows, size_t in, size_t out, double* y) {
  ActiveKernels().dense_forward(x, w, b, rows, in, out, y);
}

void DenseWeightGradient(const double* x, const double* d, size_t rows,
                         size_t in, size_t out, double scale, double* gw,
                         double* gb) {
  ActiveKernels().dense_weight_gradient(x, d, rows, in, out, scale, gw, gb);
}

void DenseBackprop(const double* w, const double* d, const double* act,
                   size_t rows, size_t in, size_t out, double* p) {
  ActiveKernels().dense_backprop(w, d, act, rows, in, out, p);
}

}  // namespace sketchml::common::simd
