#ifndef SKETCHML_COMMON_MURMUR_HASH_H_
#define SKETCHML_COMMON_MURMUR_HASH_H_

#include <cstddef>
#include <cstdint>

namespace sketchml::common {

/// MurmurHash3 finalizer applied to a 64-bit key. Cheap, well-mixed hash
/// for integer gradient keys; distinct `seed`s give (empirically)
/// independent hash functions.
uint64_t MurmurMix64(uint64_t key, uint64_t seed);

/// A seeded hash function mapping 64-bit keys onto `[0, buckets)`.
///
/// This is the hash family used by all sketches (Count-Min, MinMaxSketch).
/// Two `HashFunction`s with different seeds behave as independent members
/// of the family.
class HashFunction {
 public:
  HashFunction() : seed_(0) {}
  explicit HashFunction(uint64_t seed) : seed_(seed) {}

  uint64_t seed() const { return seed_; }

  /// Returns a well-mixed 64-bit hash of `key`.
  uint64_t Hash(uint64_t key) const { return MurmurMix64(key, seed_); }

  /// Returns a bucket index in `[0, buckets)`. `buckets` must be positive.
  uint64_t Bucket(uint64_t key, uint64_t buckets) const {
    return Hash(key) % buckets;
  }

 private:
  uint64_t seed_;
};

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_MURMUR_HASH_H_
