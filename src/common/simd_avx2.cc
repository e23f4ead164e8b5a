#include "common/simd.h"

// AVX2 implementations of the batch kernels. This translation unit
// is the only place (together with the other src/common/simd* files) where
// raw intrinsics are allowed — the `sketchml-raw-simd` lint rule keeps the
// dispatch seam the repo's single SIMD surface.
//
// The file is compiled with `-mavx2` only when CMake detects compiler
// support (SKETCHML_SIMD_AVX2_COMPILED); otherwise it degrades to a stub
// whose Avx2Kernels() returns nullptr and the dispatcher never leaves the
// scalar path. Every kernel here must be bit-identical to its scalar
// reference in simd.cc — pinned by tests/simd_differential_test.cc.

#if defined(SKETCHML_SIMD_AVX2_COMPILED)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/bit_util.h"

namespace sketchml::common::simd {
namespace internal {
namespace {

// ---------------------------------------------------------------------------
// KLL build: level-0 block sort and the min/max fold.
//
// SortBlocks8 transposes 4 blocks so register i holds value i of each, runs
// the shared 19-comparator network on whole registers (a min and a max:
// the same swap-iff-less rule as the scalar comparator, so the outputs
// match it bit for bit) and transposes back.
// ---------------------------------------------------------------------------

// min(b, a) is b < a ? b : a and max(a, b) is a > b ? a : b, lane by
// lane: the scalar comparator's swap-iff-less rule in two instructions.
inline void CompareSelect4(__m256d& a, __m256d& b) {
  const __m256d lo = _mm256_min_pd(b, a);
  b = _mm256_max_pd(a, b);
  a = lo;
}

inline void Transpose4(__m256d* r) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

void SortBlocks8Avx2(const double* in, size_t blocks, double* out) {
  constexpr size_t kLanes = 4;
  size_t b = 0;
  for (; b + kLanes <= blocks; b += kLanes) {
    const double* src = in + b * kSortBlock;
    double* dst = out + b * kSortBlock;
    __m256d v[kSortBlock];
    for (size_t lane = 0; lane < kLanes; ++lane) {
      v[lane] = _mm256_loadu_pd(src + lane * kSortBlock);
      v[kLanes + lane] = _mm256_loadu_pd(src + lane * kSortBlock + kLanes);
    }
    Transpose4(v);
    Transpose4(v + kLanes);
    SortNetwork8(v, CompareSelect4);
    Transpose4(v);
    Transpose4(v + kLanes);
    for (size_t lane = 0; lane < kLanes; ++lane) {
      _mm256_storeu_pd(dst + lane * kSortBlock, v[lane]);
      _mm256_storeu_pd(dst + lane * kSortBlock + kLanes, v[kLanes + lane]);
    }
  }
  kScalarKernels.sort_blocks8(in + b * kSortBlock, blocks - b,
                              out + b * kSortBlock);
}

// ---------------------------------------------------------------------------
// Run sort: SortRun's network on rows, a row being 4 consecutive positions
// in one register. Up to 32 positions are sorted in 8 registers: the block
// network on 4 transposed blocks, then the merges of runs of 8 and 16.
// Longer runs are sorted 32 at a time into a scratch buffer and merged
// there: each comparator stride of 32 or more is a pass over rows in
// memory, and the strides below 32 finish one 32-item group in registers.
// Rows wholly past n hold only padding, so every comparator against one is
// skipped, and a group past n is never touched.
// ---------------------------------------------------------------------------

constexpr size_t kRowsPerGroup = 8;
constexpr size_t kGroup = 4 * kRowsPerGroup;
// Scratch positions a run sort keeps on the stack (level 0 at k = 512).
constexpr size_t kStackRun = 512;

inline __m256d Reverse4(__m256d x) { return _mm256_permute4x64_pd(x, 0x1B); }

// The comparators of stride 2, then 1, inside one row.
inline __m256d CleanRow(__m256d x) {
  __m256d y = _mm256_permute4x64_pd(x, 0x4E);
  x = _mm256_blend_pd(_mm256_min_pd(y, x), _mm256_max_pd(y, x), 0b1100);
  y = _mm256_permute_pd(x, 0b0101);
  return _mm256_blend_pd(_mm256_min_pd(y, x), _mm256_max_pd(y, x), 0b1010);
}

// Half-cleaners over `Rows` rows, from a stride of `Stride` rows down to
// the strides inside each row.
template <size_t Rows, size_t Stride>
inline void CleanRows(__m256d* r) {
  for (size_t d = Stride; d > 0; d /= 2) {
    for (size_t s = 0; s < Rows; s += 2 * d) {
      for (size_t i = 0; i < d; ++i) CompareSelect4(r[s + i], r[s + i + d]);
    }
  }
  for (size_t i = 0; i < Rows; ++i) r[i] = CleanRow(r[i]);
}

// Bitonic merge of the sorted runs r[0, Rows/2) and r[Rows/2, Rows).
template <size_t Rows>
inline void MergeRows(__m256d* r) {
  for (size_t i = 0; i < Rows / 2; ++i) {
    __m256d upper = Reverse4(r[Rows - 1 - i]);
    CompareSelect4(r[i], upper);
    r[Rows - 1 - i] = Reverse4(upper);
  }
  CleanRows<Rows, Rows / 4>(r);
}

// Sorts the 4 blocks of 8 held in r (block b in rows 2b and 2b + 1), then
// runs the first `merges` merge levels.
inline void SortGroup(__m256d* r, size_t merges) {
  __m256d v[kSortBlock] = {r[0], r[2], r[4], r[6], r[1], r[3], r[5], r[7]};
  Transpose4(v);
  Transpose4(v + 4);
  SortNetwork8(v, CompareSelect4);
  Transpose4(v);
  Transpose4(v + 4);
  for (size_t b = 0; b < 4; ++b) {
    r[2 * b] = v[b];
    r[2 * b + 1] = v[4 + b];
  }
  if (merges >= 1) {
    MergeRows<4>(r);
    MergeRows<4>(r + 4);
  }
  if (merges >= 2) MergeRows<8>(r);
}

// All-ones in the lanes below `count` (1 to 3).
inline __m256i TailMask(size_t count) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(count)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

// Loads the 8 rows from `in`, which holds `count` items; positions past
// them read as +inf, and nothing past them is touched.
inline void LoadGroup(const double* in, size_t count, __m256d* r) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < kRowsPerGroup; ++i) {
    const size_t at = 4 * i;
    if (at + 4 <= count) {
      r[i] = _mm256_loadu_pd(in + at);
    } else if (at >= count) {
      r[i] = inf;
    } else {
      const __m256i mask = TailMask(count - at);
      r[i] = _mm256_blendv_pd(inf, _mm256_maskload_pd(in + at, mask),
                              _mm256_castsi256_pd(mask));
    }
  }
}

void SortRunAvx2(const double* in, size_t n, double* out) {
  __m256d r[kRowsPerGroup];
  if (n <= kGroup) {
    // Merge levels of the network: runs of 8 up to SortRunNetworkSize(n).
    const size_t merges = static_cast<size_t>(
        std::countr_zero(SortRunNetworkSize(n) / kSortBlock));
    LoadGroup(in, n, r);
    SortGroup(r, merges);
    for (size_t i = 0; 4 * i < n; ++i) {
      if (4 * i + 4 <= n) {
        _mm256_storeu_pd(out + 4 * i, r[i]);
      } else {
        _mm256_maskstore_pd(out + 4 * i, TailMask(n - 4 * i), r[i]);
      }
    }
    return;
  }
  const size_t used = (n + kGroup - 1) / kGroup * kGroup;
  alignas(32) double stack[kStackRun];
  std::vector<double> heap;
  double* x = stack;
  if (used > kStackRun) {
    heap.resize(used);
    x = heap.data();
  }
  for (size_t g = 0; g < n; g += kGroup) {
    LoadGroup(in + g, n - g, r);
    SortGroup(r, 2);
    for (size_t i = 0; i < kRowsPerGroup; ++i) {
      _mm256_storeu_pd(x + g + 4 * i, r[i]);
    }
  }
  const auto compare_rows = [x](size_t lower, size_t upper) {
    __m256d a = _mm256_loadu_pd(x + lower);
    __m256d b = _mm256_loadu_pd(x + upper);
    CompareSelect4(a, b);
    _mm256_storeu_pd(x + lower, a);
    _mm256_storeu_pd(x + upper, b);
  };
  const size_t padded = SortRunNetworkSize(n);
  for (size_t w = kGroup; w < padded; w *= 2) {
    for (size_t s = 0; s < n; s += 2 * w) {
      // Row i of the pair against the reversed row 2w - 4 - i, from the
      // first such row that holds an item.
      const size_t last_row = s + 2 * w - 4;
      for (size_t i = last_row >= n ? (last_row - n) / 4 * 4 + 4 : 0; i < w;
           i += 4) {
        double* upper = x + last_row - i;
        __m256d a = _mm256_loadu_pd(x + s + i);
        __m256d b = Reverse4(_mm256_loadu_pd(upper));
        CompareSelect4(a, b);
        _mm256_storeu_pd(x + s + i, a);
        _mm256_storeu_pd(upper, Reverse4(b));
      }
      for (size_t h = w / 2; h >= kGroup; h /= 2) {
        for (size_t t = s; t + h < std::min(n, s + 2 * w); t += 2 * h) {
          for (size_t i = 0; i < h && t + h + i < n; i += 4) {
            compare_rows(t + i, t + h + i);
          }
        }
      }
      for (size_t t = s; t < std::min(n, s + 2 * w); t += kGroup) {
        for (size_t i = 0; i < kRowsPerGroup; ++i) {
          r[i] = _mm256_loadu_pd(x + t + 4 * i);
        }
        CleanRows<kRowsPerGroup, kRowsPerGroup / 2>(r);
        for (size_t i = 0; i < kRowsPerGroup; ++i) {
          _mm256_storeu_pd(x + t + 4 * i, r[i]);
        }
      }
    }
  }
  std::memcpy(out, x, n * sizeof(double));
}

// Lane-parallel min/max. Folded in any order they reach the scalar fold's
// value; only its bit pattern can differ, and only where that value is
// +0.0/-0.0 or a NaN is involved, so those inputs rerun the scalar fold.
void FoldMinMaxAvx2(const double* values, size_t count, double* min,
                    double* max) {
  __m256d lo0 = _mm256_set1_pd(*min);
  __m256d hi0 = _mm256_set1_pd(*max);
  __m256d lo1 = lo0;
  __m256d hi1 = hi0;
  __m256d unordered = _mm256_cmp_pd(lo0, hi0, _CMP_UNORD_Q);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256d a = _mm256_loadu_pd(values + i);
    const __m256d b = _mm256_loadu_pd(values + i + 4);
    lo0 = _mm256_min_pd(lo0, a);
    hi0 = _mm256_max_pd(hi0, a);
    lo1 = _mm256_min_pd(lo1, b);
    hi1 = _mm256_max_pd(hi1, b);
    unordered = _mm256_or_pd(unordered, _mm256_cmp_pd(a, b, _CMP_UNORD_Q));
  }
  alignas(32) double lo_lanes[4];
  alignas(32) double hi_lanes[4];
  _mm256_store_pd(lo_lanes, _mm256_min_pd(lo0, lo1));
  _mm256_store_pd(hi_lanes, _mm256_max_pd(hi0, hi1));
  bool nan = _mm256_movemask_pd(unordered) != 0;
  double lo = lo_lanes[0];
  double hi = hi_lanes[0];
  for (int lane = 1; lane < 4; ++lane) {
    lo = std::min(lo, lo_lanes[lane]);
    hi = std::max(hi, hi_lanes[lane]);
  }
  for (; i < count; ++i) {
    nan |= std::isnan(values[i]);
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  if (nan || lo == 0.0 || hi == 0.0) {
    kScalarKernels.fold_min_max(values, count, min, max);
    return;
  }
  *min = lo;
  *max = hi;
}

// ---------------------------------------------------------------------------
// Bucket search: branchless predicated search over the sorted split array.
//
// pos(v) := #splits s with !(v < s)  ==  upper_bound(splits, v) - splits
// (the predicate is monotone over a sorted array, and NaN v yields pos ==
// num_splits, exactly like upper_bound's comparator).
//
// Two-level scheme: splits are padded to chunks of 8 (+inf padding) and
// each chunk's maximum becomes a pivot. Stage 1 counts satisfied pivots
// for 4 values at once (cf = number of fully-satisfied chunks); stage 2
// resolves the one partial chunk with two compares and a popcount. The
// predicated compare-and-accumulate never branches on the data, so the
// ~50%-mispredict binary search this replaces is the only victim.
// ---------------------------------------------------------------------------

constexpr size_t kChunk = 8;
// Covers every wire configuration (<= 257 splits) with a stack buffer;
// larger split arrays (possible through the public quantizer API) fall
// back to the scalar kernel.
constexpr size_t kMaxSplits = 2048;
constexpr size_t kMaxChunks = kMaxSplits / kChunk + 1;

size_t BucketSearchAvx2(const double* splits, size_t num_splits,
                        const double* values, size_t count, uint16_t* out) {
  if (num_splits < 2 || num_splits > kMaxSplits) {
    return kScalarKernels.bucket_search(splits, num_splits, values, count,
                                        out);
  }
  const size_t num_chunks = (num_splits + kChunk - 1) / kChunk;
  alignas(32) double padded[kMaxChunks * kChunk];
  alignas(32) double pivots[kMaxChunks];
  std::memcpy(padded, splits, num_splits * sizeof(double));
  for (size_t i = num_splits; i < num_chunks * kChunk; ++i) {
    padded[i] = std::numeric_limits<double>::infinity();
  }
  for (size_t j = 0; j < num_chunks; ++j) {
    pivots[j] = padded[j * kChunk + kChunk - 1];
  }

  const int top = static_cast<int>(num_splits) - 2;  // num_buckets - 1
  size_t clamped_count = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    // Stage 1: per-lane count of pivots with !(v < pivot). An all-ones
    // compare mask is -1 as an integer, so subtracting it accumulates.
    __m256i full_chunks = _mm256_setzero_si256();
    for (size_t j = 0; j < num_chunks; ++j) {
      const __m256d pivot = _mm256_broadcast_sd(&pivots[j]);
      const __m256d mask = _mm256_cmp_pd(v, pivot, _CMP_NLT_UQ);
      full_chunks =
          _mm256_sub_epi64(full_chunks, _mm256_castpd_si256(mask));
    }
    alignas(32) int64_t cf[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(cf), full_chunks);
    // Stage 2: resolve each lane's partial chunk.
    for (int lane = 0; lane < 4; ++lane) {
      const size_t chunk = static_cast<size_t>(cf[lane]);
      size_t pos;
      if (chunk >= num_chunks) {
        // Every pivot satisfied: only possible for NaN (or a +inf value
        // meeting the +inf pad pivot) — upper_bound lands at the end.
        pos = num_splits;
      } else {
        const __m256d vv = _mm256_broadcast_sd(values + i + lane);
        const __m256d lo = _mm256_load_pd(padded + chunk * kChunk);
        const __m256d hi = _mm256_load_pd(padded + chunk * kChunk + 4);
        const int mask =
            _mm256_movemask_pd(_mm256_cmp_pd(vv, lo, _CMP_NLT_UQ)) |
            (_mm256_movemask_pd(_mm256_cmp_pd(vv, hi, _CMP_NLT_UQ)) << 4);
        pos = chunk * kChunk +
              static_cast<size_t>(__builtin_popcount(
                  static_cast<unsigned>(mask)));
      }
      const int idx = static_cast<int>(pos) - 1;
      const int clamped = idx < 0 ? 0 : (idx > top ? top : idx);
      clamped_count += static_cast<size_t>(clamped != idx);
      out[i + lane] = static_cast<uint16_t>(clamped);
    }
  }
  if (i < count) {
    clamped_count += kScalarKernels.bucket_search(
        splits, num_splits, values + i, count - i, out + i);
  }
  return clamped_count;
}

// ---------------------------------------------------------------------------
// Sketch hashing: 4-lane MurmurMix64 plus an exact division-free modulo.
// ---------------------------------------------------------------------------

// Low 64 bits of a 64x64 multiply per lane (AVX2 has only 32x32->64).
inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i hi = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

inline __m256i XorShift33(__m256i h) {
  return _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
}

// Exact n % d without the hardware divider: q_hat = floor(n * magic /
// 2^(64+shift)) with magic = floor(2^(64+shift) / d) underestimates
// floor(n/d) by at most a couple, so a subtract-correct loop lands the
// exact remainder. Bit-identical to `%` for every n (differential-tested).
struct InvariantDivisor {
  uint64_t d;
  uint64_t magic = 0;
  int shift = 0;
  bool pow2;

  explicit InvariantDivisor(uint64_t divisor)
      : d(divisor), pow2((divisor & (divisor - 1)) == 0) {
    if (!pow2) {
      shift = 63 - __builtin_clzll(d);
      magic = static_cast<uint64_t>(
          (static_cast<unsigned __int128>(1) << (64 + shift)) / d);
    }
  }

  uint64_t Mod(uint64_t n) const {
    if (pow2) return n & (d - 1);
    const uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(n) * magic) >> 64) >> shift;
    uint64_t r = n - q * d;
    while (r >= d) r -= d;
    return r;
  }
};

void HashBucketsAvx2(const uint64_t* keys, size_t count, uint64_t seed,
                     uint64_t num_buckets, uint32_t* out) {
  const InvariantDivisor div(num_buckets);
  const __m256i seed_mix =
      _mm256_set1_epi64x(static_cast<int64_t>(seed * 0x9e3779b97f4a7c15ULL));
  const __m256i c1 =
      _mm256_set1_epi64x(static_cast<int64_t>(0xff51afd7ed558ccdULL));
  const __m256i c2 =
      _mm256_set1_epi64x(static_cast<int64_t>(0xc4ceb9fe1a85ec53ULL));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    __m256i h = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    h = _mm256_xor_si256(h, seed_mix);
    h = XorShift33(h);
    h = MulLo64(h, c1);
    h = XorShift33(h);
    h = MulLo64(h, c2);
    h = XorShift33(h);
    alignas(32) uint64_t hashed[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(hashed), h);
    out[i + 0] = static_cast<uint32_t>(div.Mod(hashed[0]));
    out[i + 1] = static_cast<uint32_t>(div.Mod(hashed[1]));
    out[i + 2] = static_cast<uint32_t>(div.Mod(hashed[2]));
    out[i + 3] = static_cast<uint32_t>(div.Mod(hashed[3]));
  }
  if (i < count) {
    kScalarKernels.hash_buckets(keys + i, count - i, seed, num_buckets,
                                out + i);
  }
}

// ---------------------------------------------------------------------------
// Delta scan: vector deltas, branchless widths via three unsigned
// threshold compares (1 + [d>0xff] + [d>0xffff] + [d>0xffffff] bytes).
// ---------------------------------------------------------------------------

DeltaScanStatus DeltaScanAvx2(const uint64_t* keys, size_t count,
                              uint32_t* deltas, uint8_t* widths,
                              size_t* total_delta_bytes) {
  if (count == 0) {
    *total_delta_bytes = 0;
    return DeltaScanStatus::kOk;
  }
  // First element scalar (its "previous" is the implicit 0).
  if (keys[0] > 0xffffffffULL) return DeltaScanStatus::kDeltaTooWide;
  deltas[0] = static_cast<uint32_t>(keys[0]);
  widths[0] = static_cast<uint8_t>(BytesNeeded(keys[0]));
  size_t total = widths[0];

  const __m256i sign = _mm256_set1_epi64x(
      static_cast<int64_t>(0x8000000000000000ULL));
  const __m256i wide_bias = _mm256_set1_epi64x(
      static_cast<int64_t>(0xffffffffULL ^ 0x8000000000000000ULL));
  const __m256i t1 = _mm256_set1_epi64x(0xff);
  const __m256i t2 = _mm256_set1_epi64x(0xffff);
  const __m256i t3 = _mm256_set1_epi64x(0xffffff);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i violation = _mm256_setzero_si256();

  size_t i = 1;
  for (; i + 4 <= count; i += 4) {
    const __m256i cur = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i));
    const __m256i prev = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + i - 1));
    const __m256i d = _mm256_sub_epi64(cur, prev);
    // Unsigned compares via the sign-flip trick. Not strictly
    // increasing, or a delta wider than 4 bytes, poisons `violation`;
    // the scalar kernel then re-derives the precise error kind.
    const __m256i cur_b = _mm256_xor_si256(cur, sign);
    const __m256i prev_b = _mm256_xor_si256(prev, sign);
    const __m256i increasing = _mm256_cmpgt_epi64(cur_b, prev_b);
    const __m256i too_wide =
        _mm256_cmpgt_epi64(_mm256_xor_si256(d, sign), wide_bias);
    violation = _mm256_or_si256(
        violation,
        _mm256_or_si256(too_wide, _mm256_andnot_si256(increasing,
                                                      _mm256_set1_epi64x(-1))));
    // Valid deltas fit 32 bits, so the signed threshold compares are safe
    // (garbage lanes only occur on the violation path, which discards
    // every output).
    __m256i w = one;
    w = _mm256_sub_epi64(w, _mm256_cmpgt_epi64(d, t1));
    w = _mm256_sub_epi64(w, _mm256_cmpgt_epi64(d, t2));
    w = _mm256_sub_epi64(w, _mm256_cmpgt_epi64(d, t3));
    alignas(32) uint64_t dd[4];
    alignas(32) uint64_t ww[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(dd), d);
    _mm256_store_si256(reinterpret_cast<__m256i*>(ww), w);
    for (int lane = 0; lane < 4; ++lane) {
      deltas[i + lane] = static_cast<uint32_t>(dd[lane]);
      widths[i + lane] = static_cast<uint8_t>(ww[lane]);
      total += static_cast<size_t>(ww[lane]);
    }
  }
  if (_mm256_movemask_epi8(violation) != 0) {
    // Rare error path: rerun the scalar kernel for the exact error kind
    // (and its first-offender semantics).
    return kScalarKernels.delta_scan(keys, count, deltas, widths,
                                     total_delta_bytes);
  }
  uint64_t previous = keys[i - 1];
  for (; i < count; ++i) {
    const uint64_t key = keys[i];
    if (key <= previous) return DeltaScanStatus::kNotIncreasing;
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

// ---------------------------------------------------------------------------
// Dense-layer kernels (ml::Mlp). Each sums in its scalar reference's order
// and rounds every multiply before its add, so the results are bit
// identical. The speed comes from register tiles that reuse every loaded
// weight or delta vector across several accumulators, from cache blocks
// that keep the reused operand in L1, and from nonzero lists that skip
// zero inputs without a data-dependent branch per element.
// ---------------------------------------------------------------------------

// A panel of up to kPanelVecs vectors (32 outputs) is the register tile
// of the forward and weight-gradient kernels.
constexpr size_t kPanelVecs = 8;
constexpr size_t kPanel = 4 * kPanelVecs;

// Forward cache block: kRowBlock weight rows of one panel (32 KB) stay in
// L1 while every instance of the batch streams its inputs over them.
constexpr size_t kRowBlock = 128;

// Back-prop tile: 4 weight rows x kBackpropVecs vectors of 4 instances.
constexpr size_t kBackpropVecs = 3;

/// The nonzero entries of a batch matrix, one group per instance row
/// (forward) or per input column (weight gradient), each in ascending
/// order of the other coordinate.
struct NonzeroLists {
  std::vector<uint32_t> index;
  std::vector<double> value;
  std::vector<uint32_t> begin;  // Group g is [begin[g], end[g]).
  std::vector<uint32_t> end;
};

/// Groups the nonzeros of x (rows x in) by row. Branchless: each element
/// is written, and the cursor advances only past a nonzero.
void RowNonzeros(const double* x, size_t rows, size_t in, NonzeroLists* nz) {
  nz->index.resize(rows * in);
  nz->value.resize(rows * in);
  nz->begin.resize(rows);
  nz->end.resize(rows);
  uint32_t k = 0;
  for (size_t n = 0; n < rows; ++n) {
    nz->begin[n] = k;
    const double* xn = x + n * in;
    for (size_t i = 0; i < in; ++i) {
      nz->index[k] = static_cast<uint32_t>(i);
      nz->value[k] = xn[i];
      k += static_cast<uint32_t>(xn[i] != 0.0);
    }
    nz->end[n] = k;
  }
}

/// Groups the nonzeros of x (rows x in) by column; column i's entries sit
/// at [i * rows, end[i]).
void ColumnNonzeros(const double* x, size_t rows, size_t in,
                    NonzeroLists* nz) {
  nz->index.resize(rows * in);
  nz->value.resize(rows * in);
  nz->begin.resize(in);
  nz->end.resize(in);
  for (size_t i = 0; i < in; ++i) {
    nz->begin[i] = nz->end[i] = static_cast<uint32_t>(i * rows);
  }
  for (size_t n = 0; n < rows; ++n) {
    const double* xn = x + n * in;
    for (size_t i = 0; i < in; ++i) {
      const uint32_t k = nz->end[i];
      nz->index[k] = static_cast<uint32_t>(n);
      nz->value[k] = xn[i];
      nz->end[i] = k + static_cast<uint32_t>(xn[i] != 0.0);
    }
  }
}

/// y[0, 4V) += value[k] * w[index[k]][0, 4V) for each entry k in order.
template <size_t V>
void ForwardPanel(const uint32_t* index, const double* value, size_t count,
                  const double* w, size_t out, double* y) {
  __m256d acc[V];
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(y + 4 * v);
  for (size_t k = 0; k < count; ++k) {
    const __m256d xv = _mm256_set1_pd(value[k]);
    const double* row = w + static_cast<size_t>(index[k]) * out;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(acc[v],
                             _mm256_mul_pd(xv, _mm256_loadu_pd(row + 4 * v)));
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) _mm256_storeu_pd(y + 4 * v, acc[v]);
}

/// g[0, 4V) += (value[k] * d[index[k]][0, 4V)) * scale for each entry k.
template <size_t V>
void WeightGradientPanel(const uint32_t* index, const double* value,
                         size_t count, const double* d, size_t out,
                         double scale, double* g) {
  const __m256d scale_v = _mm256_set1_pd(scale);
  __m256d acc[V];
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(g + 4 * v);
  for (size_t k = 0; k < count; ++k) {
    const __m256d xv = _mm256_set1_pd(value[k]);
    const double* dn = d + static_cast<size_t>(index[k]) * out;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(_mm256_mul_pd(xv, _mm256_loadu_pd(dn + 4 * v)),
                                scale_v));
    }
  }
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) _mm256_storeu_pd(g + 4 * v, acc[v]);
}

using ForwardPanelFn = void (*)(const uint32_t*, const double*, size_t,
                                const double*, size_t, double*);
using WeightGradientPanelFn = void (*)(const uint32_t*, const double*, size_t,
                                       const double*, size_t, double, double*);

template <size_t... V>
constexpr std::array<ForwardPanelFn, sizeof...(V) + 1> ForwardPanels(
    std::index_sequence<V...>) {
  return {nullptr, &ForwardPanel<V + 1>...};
}
template <size_t... V>
constexpr std::array<WeightGradientPanelFn, sizeof...(V) + 1>
WeightGradientPanels(std::index_sequence<V...>) {
  return {nullptr, &WeightGradientPanel<V + 1>...};
}

// Indexed by the panel's vector count, 1..kPanelVecs.
constexpr auto kForwardPanels =
    ForwardPanels(std::make_index_sequence<kPanelVecs>());
constexpr auto kWeightGradientPanels =
    WeightGradientPanels(std::make_index_sequence<kPanelVecs>());

// One set of lists per thread, shared by the forward and weight-gradient
// kernels: each rebuilds it on entry.
thread_local NonzeroLists tls_nonzeros;

void DenseForwardAvx2(const double* x, const double* w, const double* b,
                      size_t rows, size_t in, size_t out, double* y) {
  NonzeroLists& nz = tls_nonzeros;
  thread_local std::vector<uint32_t> block_begin;
  RowNonzeros(x, rows, in, &nz);
  block_begin.resize(rows);
  for (size_t n = 0; n < rows; ++n) {
    std::memcpy(y + n * out, b, out * sizeof(double));
  }
  const size_t vec_out = out / 4 * 4;
  // Each instance's cursor walks its row list one row block at a time,
  // so every sum still adds i in ascending order.
  std::vector<uint32_t>& cursor = nz.begin;
  for (size_t i0 = 0; i0 < in; i0 += kRowBlock) {
    const uint32_t i1 = static_cast<uint32_t>(std::min(in, i0 + kRowBlock));
    for (size_t n = 0; n < rows; ++n) {
      block_begin[n] = cursor[n];
      while (cursor[n] < nz.end[n] && nz.index[cursor[n]] < i1) ++cursor[n];
    }
    for (size_t j0 = 0; j0 < vec_out; j0 += kPanel) {
      const ForwardPanelFn panel =
          kForwardPanels[std::min(kPanelVecs, (vec_out - j0) / 4)];
      for (size_t n = 0; n < rows; ++n) {
        const uint32_t k = block_begin[n];
        panel(nz.index.data() + k, nz.value.data() + k, cursor[n] - k,
              w + j0, out, y + n * out + j0);
      }
    }
    for (size_t n = 0; n < rows; ++n) {
      for (size_t j = vec_out; j < out; ++j) {
        double sum = y[n * out + j];
        for (uint32_t k = block_begin[n]; k < cursor[n]; ++k) {
          sum += nz.value[k] * w[static_cast<size_t>(nz.index[k]) * out + j];
        }
        y[n * out + j] = sum;
      }
    }
  }
}

void DenseWeightGradientAvx2(const double* x, const double* d, size_t rows,
                             size_t in, size_t out, double scale, double* gw,
                             double* gb) {
  for (size_t n = 0; n < rows; ++n) {
    const double* dn = d + n * out;
    for (size_t j = 0; j < out; ++j) gb[j] += dn[j] * scale;
  }
  NonzeroLists& nz = tls_nonzeros;
  ColumnNonzeros(x, rows, in, &nz);
  const size_t vec_out = out / 4 * 4;
  for (size_t j0 = 0; j0 < vec_out; j0 += kPanel) {
    const WeightGradientPanelFn panel =
        kWeightGradientPanels[std::min(kPanelVecs, (vec_out - j0) / 4)];
    for (size_t i = 0; i < in; ++i) {
      const uint32_t k = nz.begin[i];
      if (k == nz.end[i]) continue;
      panel(nz.index.data() + k, nz.value.data() + k, nz.end[i] - k, d + j0,
            out, scale, gw + i * out + j0);
    }
  }
  for (size_t i = 0; i < in; ++i) {
    for (size_t j = vec_out; j < out; ++j) {
      double sum = gw[i * out + j];
      for (uint32_t k = nz.begin[i]; k < nz.end[i]; ++k) {
        sum += nz.value[k] * d[static_cast<size_t>(nz.index[k]) * out + j] *
               scale;
      }
      gw[i * out + j] = sum;
    }
  }
}

/// p[n][i0, i0 + 4) for the V * 4 instances from n0: rows i0..i0+3 of w
/// (at `w`) against the transposed deltas `dt` (out x stride, at column
/// n0), masked by act > 0. Lanes past `rows` are padding and not stored.
template <size_t V>
void BackpropTile(const double* w, const double* dt, size_t stride,
                  size_t out, const double* act, size_t in, size_t n0,
                  size_t rows, double* p) {
  __m256d acc[4][V];
#pragma GCC unroll 4
  for (size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (size_t j = 0; j < out; ++j) {
    const double* dj = dt + j * stride;
#pragma GCC unroll 4
    for (size_t r = 0; r < 4; ++r) {
      const __m256d wr = _mm256_set1_pd(w[r * out + j]);
#pragma GCC unroll 8
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(
            acc[r][v], _mm256_mul_pd(wr, _mm256_loadu_pd(dj + 4 * v)));
      }
    }
  }
  const __m256d zero = _mm256_setzero_pd();
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) {
    // Transpose the 4 rows x 4 instances block: instance l's four sums
    // for rows i0..i0+3 land in one vector.
    const __m256d t0 = _mm256_unpacklo_pd(acc[0][v], acc[1][v]);
    const __m256d t1 = _mm256_unpackhi_pd(acc[0][v], acc[1][v]);
    const __m256d t2 = _mm256_unpacklo_pd(acc[2][v], acc[3][v]);
    const __m256d t3 = _mm256_unpackhi_pd(acc[2][v], acc[3][v]);
    const __m256d sums[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                             _mm256_permute2f128_pd(t1, t3, 0x20),
                             _mm256_permute2f128_pd(t0, t2, 0x31),
                             _mm256_permute2f128_pd(t1, t3, 0x31)};
    for (size_t l = 0; l < 4 && n0 + 4 * v + l < rows; ++l) {
      const size_t at = (n0 + 4 * v + l) * in;
      const __m256d alive =
          _mm256_cmp_pd(_mm256_loadu_pd(act + at), zero, _CMP_GT_OQ);
      _mm256_storeu_pd(p + at, _mm256_and_pd(sums[l], alive));
    }
  }
}

using BackpropTileFn = void (*)(const double*, const double*, size_t, size_t,
                                const double*, size_t, size_t, size_t,
                                double*);
template <size_t... V>
constexpr std::array<BackpropTileFn, sizeof...(V) + 1> BackpropTiles(
    std::index_sequence<V...>) {
  return {nullptr, &BackpropTile<V + 1>...};
}
constexpr auto kBackpropTiles =
    BackpropTiles(std::make_index_sequence<kBackpropVecs>());

void DenseBackpropAvx2(const double* w, const double* d, const double* act,
                       size_t rows, size_t in, size_t out, double* p) {
  // Deltas transposed to out x stride, instances padded with zeros to
  // whole vectors, so one load feeds four instances.
  thread_local std::vector<double> dt;
  const size_t stride = (rows + 3) / 4 * 4;
  dt.assign(out * stride, 0.0);
  for (size_t n = 0; n < rows; ++n) {
    for (size_t j = 0; j < out; ++j) dt[j * stride + n] = d[n * out + j];
  }
  const size_t tiled_in = in / 4 * 4;
  for (size_t i0 = 0; i0 < tiled_in; i0 += 4) {
    for (size_t n0 = 0; n0 < rows; n0 += 4 * kBackpropVecs) {
      const size_t vecs = std::min(kBackpropVecs, (stride - n0) / 4);
      kBackpropTiles[vecs](w + i0 * out, dt.data() + n0, stride, out,
                           act + i0, in, n0, rows, p + i0);
    }
  }
  for (size_t n = 0; n < rows; ++n) {
    for (size_t i = tiled_in; i < in; ++i) {
      double sum = 0.0;
      if (act[n * in + i] > 0.0) {
        for (size_t j = 0; j < out; ++j) {
          sum += w[i * out + j] * d[n * out + j];
        }
      }
      p[n * in + i] = sum;
    }
  }
}

const Kernels kAvx2Kernels = {
    &SortBlocks8Avx2,
    &SortRunAvx2,
    &FoldMinMaxAvx2,
    &BucketSearchAvx2,
    &HashBucketsAvx2,
    &DeltaScanAvx2,
    &DenseForwardAvx2,
    &DenseWeightGradientAvx2,
    &DenseBackpropAvx2,
};

}  // namespace

const Kernels* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace internal
}  // namespace sketchml::common::simd

#else  // !SKETCHML_SIMD_AVX2_COMPILED

namespace sketchml::common::simd::internal {

const Kernels* Avx2Kernels() { return nullptr; }

}  // namespace sketchml::common::simd::internal

#endif  // SKETCHML_SIMD_AVX2_COMPILED
