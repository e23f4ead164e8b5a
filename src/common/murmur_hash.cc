#include "common/murmur_hash.h"

namespace sketchml::common {

uint64_t MurmurMix64(uint64_t key, uint64_t seed) {
  uint64_t h = key ^ (seed * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace sketchml::common
