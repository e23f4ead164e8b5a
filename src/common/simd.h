#ifndef SKETCHML_COMMON_SIMD_H_
#define SKETCHML_COMMON_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace sketchml::common::simd {

/// The runtime-dispatch seam for the repo's batch kernels: the KLL build's
/// (level-0 block sort, level-0 run sort, min/max fold), the codec
/// pipeline's (bucket search, sketch hashing, delta keys) and the Fig 14
/// MLP's dense layers (docs/perf.md).
///
/// Every kernel below has a scalar implementation (always compiled, the
/// reference semantics) and optionally an AVX2 implementation (compiled
/// only when the toolchain supports `-mavx2`, selected only when the CPU
/// reports AVX2). The two paths are required to be *bit-identical*: same
/// outputs, same wire bytes, same metric counts — pinned by
/// tests/simd_differential_test.cc and the golden regression gate.
///
/// Selection order:
///   1. `SKETCHML_SIMD` environment variable, read once at first use:
///      "off"/"scalar" pin the scalar path, "avx2" requests AVX2
///      (falling back to scalar with a warning if unavailable),
///      "auto"/"on"/unset pick the best detected level.
///   2. `SetActiveLevel` / `SetActiveLevelFromString` override at runtime
///      (the tools' `--simd=` flag, and tests pinning both paths).
///
/// Raw intrinsics are allowed only in `src/common/simd*` translation
/// units (enforced by the `sketchml-raw-simd` lint rule) so this seam
/// stays the single SIMD surface of the repo.
enum class Level {
  kScalar = 0,  // Portable reference path; always available.
  kAvx2 = 1,    // 256-bit x86 path; requires CPU + build support.
};

/// Human-readable name ("scalar", "avx2").
const char* LevelName(Level level);

/// Best level supported by this CPU *and* this build (cpuid-checked).
Level DetectedLevel();

/// True when `level` can be activated on this host.
bool LevelSupported(Level level);

/// The level the dispatched kernels currently run at.
Level ActiveLevel();

/// Pins the dispatch to `level`. CHECK-fails if unsupported; use
/// `LevelSupported` (or `SetActiveLevelFromString`) for recoverable
/// handling. Thread-safe, but callers should not flip it while encodes
/// are in flight on other threads.
void SetActiveLevel(Level level);

/// Parses "auto" | "on" | "off" | "scalar" | "avx2" (the `--simd=` flag
/// vocabulary) and activates the result. "avx2" on a host without AVX2
/// is an InvalidArgument; "auto"/"on" select `DetectedLevel()`.
Status SetActiveLevelFromString(const std::string& name);

// ---------------------------------------------------------------------------
// Batch kernels. All of them dispatch on ActiveLevel().
// ---------------------------------------------------------------------------

/// Values per block of SortBlocks8.
inline constexpr size_t kSortBlock = 8;

/// KLL level-0 compaction sort: sorts each of the `blocks` consecutive
/// 8-value blocks of `in` ascending into the same block of `out` (the two
/// must not overlap), with Batcher's 19-comparator odd-even merge network.
/// Each comparator is a compare-and-select that swaps a pair only when the
/// second value is strictly below the first, so every output block is a
/// permutation of its input's bit patterns: +0.0 and -0.0 compare equal
/// and keep the network's order, and NaN, which has no order, is moved
/// but never lost.
void SortBlocks8(const double* in, size_t blocks, double* out);

/// KLL level-0 compaction sort below the 8-item floor: sorts the `n`
/// values of `in` ascending into `out`, which may be `in` itself (an
/// in-place sort) but must not otherwise overlap it. Any `n` is accepted.
///
/// The result is defined by one comparator network, run on every level:
/// pad the run with +inf to 8 * 2^m items, sort each block of 8 with
/// SortNetwork8, then merge neighbouring runs of 8, 16, 32, ... with
/// bitonic merges (compare item i of the pair with item 2w - 1 - i, then
/// half-cleaners of stride w / 2, ..., 1). Every comparator is the one
/// SortBlocks8 uses: it puts the lesser value at the lower position and
/// swaps only when the upper value is strictly below the lower one. So
/// +0.0 and -0.0 come out in the network's order, the same bits on every
/// level (not necessarily std::sort's order), and the +inf padding never
/// moves. NaN has no order: a run holding one comes out as the same
/// permutation of its input's bit patterns on every level, but need not
/// be sorted.
void SortRun(const double* in, size_t n, double* out);

/// The in-order fold of std::min and std::max: for i ascending, *min =
/// std::min(*min, values[i]) and *max = std::max(*max, values[i]). A
/// result of +0.0 or -0.0 (which compare equal) is the one that fold
/// keeps, and a NaN is carried exactly as it would be.
void FoldMinMax(const double* values, size_t count, double* min, double* max);

/// Predicated bucket search over a sorted split array (§3.2 quantizer).
/// For each value: out[i] = clamp(upper_bound(splits, value) - splits - 1,
/// 0, num_splits - 2) — exactly QuantileBucketQuantizer::BucketOf.
/// Returns the number of clamped (out-of-range) values, which feeds the
/// `quantizer/bucket_overflow` metric. `num_splits >= 2`; `out` holds
/// `count` entries. NaN values land in the top bucket (and count as
/// clamped), matching upper_bound's comparator semantics.
size_t BucketSearch(const double* splits, size_t num_splits,
                    const double* values, size_t count, uint16_t* out);

/// Batch sketch hashing: out[i] = MurmurMix64(keys[i], seed) % num_buckets
/// — exactly common::HashFunction::Bucket for every key. `num_buckets`
/// must be in [1, 2^32) so indexes fit uint32.
void HashBuckets(const uint64_t* keys, size_t count, uint64_t seed,
                 uint64_t num_buckets, uint32_t* out);

/// Result of a delta-key scan (mirrors the DeltaBinaryKeyCodec::Encode
/// error contract).
enum class DeltaScanStatus {
  kOk = 0,
  kNotIncreasing,  // keys[i] <= keys[i-1]
  kDeltaTooWide,   // a delta (or the first key) exceeds 4 bytes
};

/// Single-pass delta/width scan for §3.4 key coding: deltas[i] =
/// keys[i] - keys[i-1] (keys[-1] = 0), widths[i] = BytesNeeded(delta)
/// computed branchlessly, *total_delta_bytes = sum of widths. On error
/// the scratch contents are unspecified. `deltas`/`widths` hold `count`
/// entries.
DeltaScanStatus DeltaScan(const uint64_t* keys, size_t count,
                          uint32_t* deltas, uint8_t* widths,
                          size_t* total_delta_bytes);

// Dense-layer kernels of the Fig 14 MLP (ml::Mlp) over a mini-batch.
// Activation matrices are instance-major: `x` is rows x in, `d` and `y`
// are rows x out. The weights `w` are in x out, row i holding input i's
// fan-out. Every multiply rounds before its add (no FMA), and each sum
// runs in the order given, so results are bit-identical on every level.
// The one freedom left is C++'s: where two NaNs of different payloads
// meet in one add or multiply, the compiler's operand order picks the
// payload that survives.

/// Forward: y[n][j] starts at b[j], then adds x[n][i] * w[i][j] for i
/// ascending, skipping every x[n][i] == 0 (a zero input contributes
/// nothing, not even 0 * inf = NaN).
void DenseForward(const double* x, const double* w, const double* b,
                  size_t rows, size_t in, size_t out, double* y);

/// Weight gradient: for n ascending, gw[i][j] += (x[n][i] * d[n][j]) *
/// scale where x[n][i] != 0, and gb[j] += d[n][j] * scale.
void DenseWeightGradient(const double* x, const double* d, size_t rows,
                         size_t in, size_t out, double scale, double* gw,
                         double* gb);

/// Back-prop through the layer and the ReLU that fed it: p[n][i] is 0.0
/// plus w[i][j] * d[n][j] for j ascending where act[n][i] > 0, and 0.0
/// elsewhere. `act` and `p` are rows x in.
void DenseBackprop(const double* w, const double* d, const double* act,
                   size_t rows, size_t in, size_t out, double* p);

namespace internal {

/// Batcher's odd-even merge network for 8 inputs: 19 comparators in 6
/// layers, each `cas(a, b)` leaving the lesser value in `a`. Every
/// SortBlocks8 level runs this one list, in this order.
template <typename T, typename Cas>
inline void SortNetwork8(T* v, Cas&& cas) {
  cas(v[0], v[1]), cas(v[2], v[3]), cas(v[4], v[5]), cas(v[6], v[7]);
  cas(v[0], v[2]), cas(v[1], v[3]), cas(v[4], v[6]), cas(v[5], v[7]);
  cas(v[1], v[2]), cas(v[5], v[6]);
  cas(v[0], v[4]), cas(v[1], v[5]), cas(v[2], v[6]), cas(v[3], v[7]);
  cas(v[2], v[4]), cas(v[3], v[5]);
  cas(v[1], v[2]), cas(v[3], v[4]), cas(v[5], v[6]);
}

/// The padded size SortRun's network sorts: 8 * 2^m, the least such size
/// that holds `n` items.
inline size_t SortRunNetworkSize(size_t n) {
  return kSortBlock * std::bit_ceil((n + kSortBlock - 1) / kSortBlock);
}

/// One kernel table per level. The scalar table is the reference; the
/// AVX2 table must match it bit for bit.
struct Kernels {
  void (*sort_blocks8)(const double*, size_t, double*);
  void (*sort_run)(const double*, size_t, double*);
  void (*fold_min_max)(const double*, size_t, double*, double*);
  size_t (*bucket_search)(const double*, size_t, const double*, size_t,
                          uint16_t*);
  void (*hash_buckets)(const uint64_t*, size_t, uint64_t, uint64_t,
                       uint32_t*);
  DeltaScanStatus (*delta_scan)(const uint64_t*, size_t, uint32_t*, uint8_t*,
                                size_t*);
  void (*dense_forward)(const double*, const double*, const double*, size_t,
                        size_t, size_t, double*);
  void (*dense_weight_gradient)(const double*, const double*, size_t, size_t,
                                size_t, double, double*, double*);
  void (*dense_backprop)(const double*, const double*, const double*, size_t,
                         size_t, size_t, double*);
};

extern const Kernels kScalarKernels;

/// The AVX2 table, or nullptr when this build lacks `-mavx2` support.
/// Only call after `__builtin_cpu_supports("avx2")` has confirmed the
/// CPU (the defining TU is compiled with AVX2 codegen enabled).
const Kernels* Avx2Kernels();

}  // namespace internal

}  // namespace sketchml::common::simd

#endif  // SKETCHML_COMMON_SIMD_H_
