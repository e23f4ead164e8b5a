#ifndef SKETCHML_COMMON_SPARSE_H_
#define SKETCHML_COMMON_SPARSE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"

namespace sketchml::common {

/// One nonzero element of a sparse gradient: dimension index and value.
/// This is the `(k_j, v_j)` pair of the paper's data model (§2.2).
struct GradientPair {
  uint64_t key = 0;
  double value = 0.0;

  friend bool operator==(const GradientPair& a, const GradientPair& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// A sparse gradient vector: nonzero entries sorted by ascending key.
/// Codecs require (and preserve) the sort order; `SortByKey` restores it.
using SparseGradient = std::vector<GradientPair>;

/// Sorts `grad` by ascending key.
inline void SortByKey(SparseGradient* grad) {
  std::sort(grad->begin(), grad->end(),
            [](const GradientPair& a, const GradientPair& b) {
              return a.key < b.key;
            });
}

/// True if keys are strictly increasing (the codec precondition).
inline bool IsSortedByKey(const SparseGradient& grad) {
  for (size_t i = 1; i < grad.size(); ++i) {
    if (grad[i - 1].key >= grad[i].key) return false;
  }
  return true;
}

/// Scratch for `MergeSortedRuns`, reused across calls so a decoder's
/// steady state allocates nothing. It holds at most 12 bytes per pair.
struct RunMergeScratch {
  std::vector<uint64_t> bits;   // Bit k of word k/64: key min + k is present.
  std::vector<uint32_t> ranks;  // Keys present in the words before word w.
};

namespace internal {

/// Merges the consecutive sorted runs of `grad` pairwise, bottom up, in
/// O(n log runs). Equal keys keep run order.
inline void MergeRunsPairwise(SparseGradient* grad,
                              std::span<const size_t> run_ends) {
  const size_t runs = run_ends.size();
  const auto run_begin = [&](size_t run) {
    return grad->begin() + (run == 0 ? 0 : run_ends[run - 1]);
  };
  for (size_t width = 1; width < runs; width *= 2) {
    for (size_t i = 0; i + width < runs; i += 2 * width) {
      std::inplace_merge(run_begin(i), run_begin(i + width),
                         run_begin(std::min(i + 2 * width, runs)),
                         [](const GradientPair& a, const GradientPair& b) {
                           return a.key < b.key;
                         });
    }
  }
}

}  // namespace internal

/// Writes the pairs (keys[i], value_of(i)) to `out` in ascending key
/// order and returns true, or returns false (leaving `out` unspecified)
/// when a key appears in more than one run. `keys` is a concatenation of
/// runs, each strictly increasing: run r spans [run_ends[r-1],
/// run_ends[r]) with run 0 starting at 0, and `run_ends` is non-decreasing
/// with keys.size() last (empty runs are fine; no runs means no keys).
/// `value_of` must be free of side effects.
///
/// The layout follows the span of the keys. When the bitmap over
/// [min key, max key] needs no more 64-bit words than there are pairs,
/// every pair goes straight to its rank: one bit per key, a prefix count
/// of the words, and key k lands at ranks[word] + popcount(bits below k);
/// a repeated key sets its bit twice, so the count falls short. A sparser
/// span would need unbounded bitmap memory, so its pairs are written in
/// run order and merged pairwise; a repeated key then meets its twin.
/// Either way the result equals `SortByKey`'s.
template <typename ValueOf>
bool MergeSortedRuns(std::span<const uint64_t> keys,
                     std::span<const size_t> run_ends, ValueOf&& value_of,
                     SparseGradient* out, RunMergeScratch* scratch) {
  const size_t n = keys.size();
  out->resize(n);
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  size_t begin = 0;
  for (const size_t end : run_ends) {
    SKETCHML_DCHECK(std::adjacent_find(keys.begin() + begin,
                                       keys.begin() + end,
                                       std::greater_equal<>()) ==
                    keys.begin() + end);
    if (end > begin) {
      lo = std::min(lo, keys[begin]);
      hi = std::max(hi, keys[end - 1]);
    }
    begin = end;
  }
  SKETCHML_DCHECK_EQ(begin, n);
  if (n == 0) return true;

  const uint64_t words = ((hi - lo) >> 6) + 1;
  if (words > n || n > std::numeric_limits<uint32_t>::max()) {
    for (size_t i = 0; i < n; ++i) (*out)[i] = {keys[i], value_of(i)};
    internal::MergeRunsPairwise(out, run_ends);
    return IsSortedByKey(*out);
  }

  std::vector<uint64_t>& bits = scratch->bits;
  bits.assign(words, 0);
  for (const uint64_t key : keys) {
    const uint64_t k = key - lo;
    bits[k >> 6] |= uint64_t{1} << (k & 63);
  }
  std::vector<uint32_t>& ranks = scratch->ranks;
  ranks.resize(words);
  uint32_t present = 0;
  for (size_t w = 0; w < words; ++w) {
    ranks[w] = present;
    present += static_cast<uint32_t>(std::popcount(bits[w]));
  }
  if (present != n) return false;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = keys[i] - lo;
    const uint64_t below = bits[k >> 6] & ((uint64_t{1} << (k & 63)) - 1);
    (*out)[ranks[k >> 6] + std::popcount(below)] = {keys[i], value_of(i)};
  }
#if SKETCHML_DCHECK_ENABLED
  // Placement/merge equivalence, bit for bit (values may be NaN).
  SparseGradient merged(n);
  for (size_t i = 0; i < n; ++i) merged[i] = {keys[i], value_of(i)};
  internal::MergeRunsPairwise(&merged, run_ends);
  for (size_t i = 0; i < n; ++i) {
    SKETCHML_DCHECK_EQ((*out)[i].key, merged[i].key);
    SKETCHML_DCHECK_EQ(std::bit_cast<uint64_t>((*out)[i].value),
                       std::bit_cast<uint64_t>(merged[i].value));
  }
#endif
  return true;
}

/// Sums values per key over [0, dim) in a dense array, with a bitmap of
/// touched keys so a drain visits only those, in ascending key order. Each
/// key's adds happen in call order starting from 0.0, exactly as
/// `std::unordered_map<uint64_t, double>::operator[] +=` would, so the sums
/// are bit-identical to a hash-map accumulator's.
///
/// Clean between uses: `Drain` and `Clear` leave every sum 0.0 and every
/// bit unset, which `Resize` requires, so one instance can serve calls of
/// any `dim`.
class KeyAccumulator {
 public:
  /// Sets the key range to [0, dim). The accumulator must be clean.
  void Resize(size_t dim) {
    sums_.resize(dim, 0.0);
    touched_.resize((dim + 63) / 64, 0);
  }

  /// Number of distinct keys added since the last drain.
  size_t touched() const { return touched_count_; }

  /// Adds `value` to `key`'s sum. `key` must be below the `Resize` dim.
  void Add(uint64_t key, double value) {
    sums_[key] += value;
    uint64_t& word = touched_[key >> 6];
    const uint64_t bit = uint64_t{1} << (key & 63);
    touched_count_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }

  /// Calls `emit(key, sum)` for every touched key in ascending key order,
  /// leaving the accumulator clean.
  template <typename Emit>
  void Drain(Emit&& emit) {
    for (size_t w = 0; w < touched_.size(); ++w) {
      uint64_t bits = touched_[w];
      if (bits == 0) continue;
      touched_[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const uint64_t key = w * 64 + std::countr_zero(bits);
        const double sum = sums_[key];
        sums_[key] = 0.0;
        emit(key, sum);
      }
    }
    touched_count_ = 0;
  }

  /// Discards every sum, leaving the accumulator clean.
  void Clear() { Drain([](uint64_t, double) {}); }

 private:
  std::vector<double> sums_;
  std::vector<uint64_t> touched_;  // Bit k of word k/64: key k was added.
  size_t touched_count_ = 0;
};

/// Extracts just the values.
inline std::vector<double> Values(const SparseGradient& grad) {
  std::vector<double> out;
  out.reserve(grad.size());
  for (const auto& p : grad) out.push_back(p.value);
  return out;
}

/// Extracts just the keys.
inline std::vector<uint64_t> Keys(const SparseGradient& grad) {
  std::vector<uint64_t> out;
  out.reserve(grad.size());
  for (const auto& p : grad) out.push_back(p.key);
  return out;
}

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_SPARSE_H_
