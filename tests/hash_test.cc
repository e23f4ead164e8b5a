#include "common/murmur_hash.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace sketchml::common {
namespace {

TEST(MurmurMix64Test, DistinctKeysRarelyCollide) {
  std::set<uint64_t> seen;
  for (uint64_t k = 0; k < 10000; ++k) {
    seen.insert(MurmurMix64(k, 7));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(HashFunctionTest, BucketIsUniformish) {
  HashFunction h(123);
  const int buckets = 64;
  std::vector<int> counts(buckets, 0);
  const int n = 64000;
  for (int k = 0; k < n; ++k) {
    ++counts[h.Bucket(static_cast<uint64_t>(k), buckets)];
  }
  for (int c : counts) {
    EXPECT_GT(c, n / buckets / 2);
    EXPECT_LT(c, n / buckets * 2);
  }
}

TEST(HashFunctionTest, DifferentSeedsActIndependently) {
  HashFunction h1(1), h2(2);
  const uint64_t buckets = 1024;
  int collisions = 0;
  for (uint64_t k = 0; k < 1000; ++k) {
    if (h1.Bucket(k, buckets) == h2.Bucket(k, buckets)) ++collisions;
  }
  // Expected collisions ~ 1000 / 1024 ≈ 1.
  EXPECT_LT(collisions, 10);
}

TEST(HashFunctionTest, ConsecutiveKeysSpread) {
  // Gradient keys are often consecutive integers; the mixer must not map
  // them to consecutive buckets.
  HashFunction h(5);
  int adjacent = 0;
  const uint64_t buckets = 1 << 20;
  for (uint64_t k = 1; k < 1000; ++k) {
    const uint64_t a = h.Bucket(k - 1, buckets);
    const uint64_t b = h.Bucket(k, buckets);
    if (b == a + 1 || a == b + 1) ++adjacent;
  }
  EXPECT_LT(adjacent, 5);
}

}  // namespace
}  // namespace sketchml::common
