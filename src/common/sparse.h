#ifndef SKETCHML_COMMON_SPARSE_H_
#define SKETCHML_COMMON_SPARSE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Merges consecutive runs of `grad`, each already sorted by ascending
/// key, into one ascending vector. Run i spans
/// [run_ends[i-1], run_ends[i]) with run 0 starting at 0; `run_ends` is
/// non-decreasing and its last entry is `grad->size()` (empty runs are
/// fine; no runs means an empty `grad`). Neighbouring runs merge pairwise,
/// bottom up, so the cost is O(n log runs) instead of a full sort's
/// O(n log n). Equal keys keep run order; with unique keys the result
/// equals `SortByKey`'s.
inline void MergeSortedRuns(SparseGradient* grad,
                            const std::vector<size_t>& run_ends) {
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

/// True if keys are strictly increasing (the codec precondition).
inline bool IsSortedByKey(const SparseGradient& grad) {
  for (size_t i = 1; i < grad.size(); ++i) {
    if (grad[i - 1].key >= grad[i].key) return false;
  }
  return true;
}

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
