#include "common/random.h"

#include <cmath>

#include "common/logging.h"
#include "common/murmur_hash.h"

namespace sketchml::common {

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion of the seed into four non-zero words.
  uint64_t s = seed;
  for (auto& word : state_) {
    s += 0x9e3779b97f4a7c15ULL;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    word = z ^ (z >> 31);
  }
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SKETCHML_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Box–Muller; discards the second variate for simplicity.
  double u1 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  SKETCHML_CHECK_GT(n, 0u);
  SKETCHML_CHECK_GT(alpha, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first CDF entry >= u.
  uint64_t lo = 0, hi = n_ - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace sketchml::common
