#ifndef SKETCHML_COMMON_RANDOM_H_
#define SKETCHML_COMMON_RANDOM_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace sketchml::common {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// All randomness in the library flows through seeded `Rng` instances so
/// that tests and benchmark harnesses are reproducible run-to-run.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x5EED5EED5EED5EEDULL);

  /// Returns a uniformly distributed 64-bit value. Inline: the KLL build
  /// draws one per compaction.
  uint64_t NextUint64() {
    const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Returns a uniform integer in `[0, bound)`. `bound` must be positive.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniform double in `[0, 1)`.
  double NextDouble();

  /// Returns a uniform double in `[lo, hi)`.
  double NextUniform(double lo, double hi);

  /// Returns a standard-normal sample (Box–Muller).
  double NextGaussian();

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// The full generator state is the four xoshiro256** words (Box–Muller
  /// discards its spare variate, so nothing else persists between calls).
  /// Save/Restore let checkpoints capture a codec's RNG lane exactly:
  /// restoring replays the same stream from the saved point.
  static constexpr int kStateWords = 4;
  void SaveState(uint64_t out[kStateWords]) const {
    for (int i = 0; i < kStateWords; ++i) out[i] = state_[i];
  }
  void RestoreState(const uint64_t in[kStateWords]) {
    for (int i = 0; i < kStateWords; ++i) state_[i] = in[i];
  }

 private:
  uint64_t state_[4];
};

/// Derives a decorrelated seed for parallel lane `lane` from `base`.
///
/// Parallel components (e.g. one gradient codec per simulated worker)
/// each get their own lane so their per-message seed sequences never
/// depend on cross-lane execution order — the property that makes
/// multi-threaded simulation bit-identical to serial. SplitMix64-style
/// finalizer: every (base, lane) pair maps to a well-mixed 64-bit seed.
inline uint64_t LaneSeed(uint64_t base, uint64_t lane) {
  uint64_t z = base + (lane + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Samples from a Zipf distribution over `{0, ..., n-1}` with exponent
/// `alpha` (> 0). Item 0 is the most popular. Used to synthesize the
/// power-law feature popularity of KDD-style sparse datasets.
class ZipfSampler {
 public:
  /// Precomputes the CDF; O(n) memory. `n` must be positive.
  ZipfSampler(uint64_t n, double alpha);

  /// Draws one sample using `rng`.
  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  uint64_t n_;
  double alpha_;
  std::vector<double> cdf_;
};

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_RANDOM_H_
