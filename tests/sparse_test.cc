#include "common/sparse.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/bit_util.h"
#include "common/random.h"

namespace sketchml::common {
namespace {

TEST(SparseGradientTest, SortByKey) {
  SparseGradient grad = {{5, 1.0}, {1, 2.0}, {3, 3.0}};
  SortByKey(&grad);
  EXPECT_EQ(grad[0].key, 1u);
  EXPECT_EQ(grad[1].key, 3u);
  EXPECT_EQ(grad[2].key, 5u);
  EXPECT_DOUBLE_EQ(grad[0].value, 2.0);
}

// Cuts `sorted` (unique ascending keys) into runs of the given lengths,
// dealing keys round-robin so the runs interleave, and shuffles the order
// of the runs; each run stays sorted. Returns the concatenation and the
// run ends MergeSortedRuns expects.
SparseGradient InterleavedRuns(const SparseGradient& sorted,
                               const std::vector<size_t>& lengths,
                               uint64_t seed, std::vector<size_t>* run_ends) {
  std::vector<SparseGradient> runs(lengths.size());
  size_t next = 0;
  for (size_t placed = 0; next < sorted.size(); ++placed) {
    const size_t r = placed % lengths.size();
    if (runs[r].size() < lengths[r]) runs[r].push_back(sorted[next++]);
  }
  Rng rng(seed);
  for (size_t i = runs.size(); i > 1; --i) {
    std::swap(runs[i - 1], runs[rng.NextBounded(i)]);
  }
  SparseGradient out;
  run_ends->clear();
  for (const SparseGradient& run : runs) {
    out.insert(out.end(), run.begin(), run.end());
    run_ends->push_back(out.size());
  }
  return out;
}

SparseGradient UniqueSorted(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(1 << 20));
  SparseGradient out;
  for (uint64_t key : keys) out.push_back({key, rng.NextGaussian()});
  return out;
}

TEST(MergeSortedRunsTest, NoRunsLeavesEmptyGradient) {
  SparseGradient grad;
  MergeSortedRuns(&grad, {});
  EXPECT_TRUE(grad.empty());
}

TEST(MergeSortedRunsTest, MatchesSortByKeyOnUniqueKeys) {
  const std::vector<std::vector<size_t>> shapes = {
      {100},                         // One run.
      {40, 60},                      // Two.
      {0, 30, 0, 70, 0},             // Empty runs, odd count.
      {10, 20, 30, 15, 25},          // Odd count.
      {7, 0, 13, 20, 5, 9, 11, 35},  // Eight: three merge passes.
      {0, 0, 0},                     // Only empty runs.
  };
  for (size_t s = 0; s < shapes.size(); ++s) {
    size_t total = 0;
    for (size_t len : shapes[s]) total += len;
    const SparseGradient sorted = UniqueSorted(total, 1000 + s);
    std::vector<size_t> run_ends;
    SparseGradient grad =
        InterleavedRuns(sorted, shapes[s], 2000 + s, &run_ends);
    SparseGradient reference = grad;
    SortByKey(&reference);
    ASSERT_EQ(reference, sorted) << "shape " << s;
    MergeSortedRuns(&grad, run_ends);
    EXPECT_EQ(grad, reference) << "shape " << s;
  }
}

using Sums = std::vector<std::pair<uint64_t, double>>;

TEST(KeyAccumulatorTest, SumsMatchOrderedMapBitForBit) {
  constexpr uint64_t kDim = 5000;
  KeyAccumulator acc;
  acc.Resize(kDim);
  std::map<uint64_t, double> reference;
  Rng rng(61);
  for (int i = 0; i < 20000; ++i) {
    // Skewed keys repeat often, so most sums take many adds; mixed
    // magnitudes make the result depend on the order of those adds.
    const uint64_t key = rng.NextBounded(rng.NextBernoulli(0.5) ? 64 : kDim);
    const double scale = rng.NextBernoulli(0.1) ? 1e6 : 1e-3;
    const double value = rng.NextGaussian() * scale;
    acc.Add(key, value);
    reference[key] += value;
  }
  EXPECT_EQ(acc.touched(), reference.size());
  Sums drained;
  acc.Drain([&](uint64_t key, double sum) { drained.emplace_back(key, sum); });
  ASSERT_EQ(drained.size(), reference.size());
  size_t i = 0;
  for (const auto& [key, sum] : reference) {  // std::map: ascending keys.
    EXPECT_EQ(drained[i].first, key);
    EXPECT_EQ(std::bit_cast<uint64_t>(drained[i].second),
              std::bit_cast<uint64_t>(sum))
        << "key " << key;
    ++i;
  }
}

TEST(KeyAccumulatorTest, DrainLeavesItEmptyAndReusable) {
  KeyAccumulator acc;
  acc.Resize(200);
  acc.Add(199, 1.5);
  acc.Add(0, -2.0);
  acc.Add(64, 0.0);  // A zero sum is still a touched key.
  acc.Add(0, 0.5);
  std::vector<uint64_t> keys;
  std::vector<double> sums;
  acc.Drain([&](uint64_t key, double sum) {
    keys.push_back(key);
    sums.push_back(sum);
  });
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 64, 199}));
  EXPECT_EQ(sums, (std::vector<double>{-1.5, 0.0, 1.5}));
  EXPECT_EQ(acc.touched(), 0u);
  size_t emitted = 0;
  acc.Drain([&](uint64_t, double) { ++emitted; });
  EXPECT_EQ(emitted, 0u);

  // Clear discards sums, and a clean accumulator can change its range.
  acc.Add(199, 4.0);
  acc.Clear();
  EXPECT_EQ(acc.touched(), 0u);
  const auto drain = [&acc] {
    Sums out;
    acc.Drain([&](uint64_t key, double sum) { out.emplace_back(key, sum); });
    return out;
  };
  acc.Resize(10);
  acc.Add(9, 0.25);
  EXPECT_EQ(drain(), (Sums{{9, 0.25}}));
  acc.Resize(300);
  acc.Add(199, 1.0);
  EXPECT_EQ(drain(), (Sums{{199, 1.0}}));
}

TEST(SparseGradientTest, IsSortedByKey) {
  EXPECT_TRUE(IsSortedByKey({}));
  EXPECT_TRUE(IsSortedByKey({{1, 0.0}}));
  EXPECT_TRUE(IsSortedByKey({{1, 0.0}, {2, 0.0}}));
  EXPECT_FALSE(IsSortedByKey({{2, 0.0}, {1, 0.0}}));
  EXPECT_FALSE(IsSortedByKey({{1, 0.0}, {1, 0.0}}));  // Duplicates illegal.
}

TEST(SparseGradientTest, KeysAndValuesExtraction) {
  SparseGradient grad = {{1, 0.5}, {9, -2.0}};
  EXPECT_EQ(Keys(grad), (std::vector<uint64_t>{1, 9}));
  EXPECT_EQ(Values(grad), (std::vector<double>{0.5, -2.0}));
}

TEST(SparseGradientTest, PairEquality) {
  EXPECT_EQ((GradientPair{1, 2.0}), (GradientPair{1, 2.0}));
  EXPECT_FALSE((GradientPair{1, 2.0}) == (GradientPair{1, 2.5}));
  EXPECT_FALSE((GradientPair{2, 2.0}) == (GradientPair{1, 2.0}));
}

TEST(BitUtilTest, BytesNeeded) {
  EXPECT_EQ(BytesNeeded(0), 1);
  EXPECT_EQ(BytesNeeded(255), 1);
  EXPECT_EQ(BytesNeeded(256), 2);
  EXPECT_EQ(BytesNeeded(65535), 2);
  EXPECT_EQ(BytesNeeded(65536), 3);
  EXPECT_EQ(BytesNeeded(16777215), 3);
  EXPECT_EQ(BytesNeeded(16777216), 4);
  EXPECT_EQ(BytesNeeded(0xFFFFFFFFull), 4);
  EXPECT_EQ(BytesNeeded(0x100000000ull), 5);
  EXPECT_EQ(BytesNeeded(~0ull), 8);
}

TEST(BitUtilTest, BitsForRange) {
  EXPECT_EQ(BitsForRange(1), 1);
  EXPECT_EQ(BitsForRange(2), 1);
  EXPECT_EQ(BitsForRange(3), 2);
  EXPECT_EQ(BitsForRange(4), 2);
  EXPECT_EQ(BitsForRange(256), 8);
  EXPECT_EQ(BitsForRange(257), 9);
}

TEST(BitUtilTest, RoundUpAndCeilDiv) {
  EXPECT_EQ(RoundUp(0, 8), 0u);
  EXPECT_EQ(RoundUp(1, 8), 8u);
  EXPECT_EQ(RoundUp(8, 8), 8u);
  EXPECT_EQ(RoundUp(9, 8), 16u);
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
}

}  // namespace
}  // namespace sketchml::common
