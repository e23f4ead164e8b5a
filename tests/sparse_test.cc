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

// Runs of keys with their values, as a decoder hands them to
// MergeSortedRuns.
struct Runs {
  std::vector<uint64_t> keys;
  std::vector<double> values;
  std::vector<size_t> ends;
};

// Cuts `sorted` (unique ascending keys) into runs of the given lengths,
// dealing keys round-robin so the runs interleave, and shuffles the order
// of the runs; each run stays sorted.
Runs InterleavedRuns(const SparseGradient& sorted,
                     const std::vector<size_t>& lengths, uint64_t seed) {
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
  Runs out;
  for (const SparseGradient& run : runs) {
    for (const GradientPair& pair : run) {
      out.keys.push_back(pair.key);
      out.values.push_back(pair.value);
    }
    out.ends.push_back(out.keys.size());
  }
  return out;
}

// `count` unique keys below `dim`, ascending, with Gaussian values.
SparseGradient UniqueSorted(size_t count, uint64_t dim, uint64_t seed) {
  Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(dim));
  SparseGradient out;
  for (uint64_t key : keys) out.push_back({key, rng.NextGaussian()});
  return out;
}

// Runs MergeSortedRuns on `runs`; `*dense` reports whether it took the
// rank-placement path (the only one that fills the scratch bitmap).
bool Merge(const Runs& runs, SparseGradient* out, bool* dense = nullptr) {
  RunMergeScratch scratch;
  const bool unique = MergeSortedRuns(
      runs.keys, runs.ends, [&runs](size_t i) { return runs.values[i]; },
      out, &scratch);
  if (dense != nullptr) *dense = !scratch.bits.empty();
  return unique;
}

TEST(MergeSortedRunsTest, NoRunsLeavesEmptyGradient) {
  SparseGradient grad = {{1, 2.0}};
  EXPECT_TRUE(Merge(Runs{}, &grad));
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
      std::vector<size_t>(16, 1),    // Sixteen single-key runs.
      {1, 200, 1, 3, 90, 2},         // Single keys beside long runs.
  };
  // Key spans: a bitmap of 2^20 keys outgrows these pair counts (merge),
  // twice the pair count does not (placement), and 0..n-1 fills every
  // bit from key 0.
  enum class Span { kSparse, kDense, kFull };
  for (const Span span : {Span::kSparse, Span::kDense, Span::kFull}) {
    for (size_t s = 0; s < shapes.size(); ++s) {
      size_t total = 0;
      for (size_t len : shapes[s]) total += len;
      const uint64_t dim = span == Span::kSparse  ? uint64_t{1} << 20
                           : span == Span::kDense ? 2 * total
                                                  : total;
      const SparseGradient sorted = UniqueSorted(total, dim, 1000 + s);
      const Runs runs = InterleavedRuns(sorted, shapes[s], 2000 + s);
      SparseGradient reference;
      for (size_t i = 0; i < runs.keys.size(); ++i) {
        reference.push_back({runs.keys[i], runs.values[i]});
      }
      SortByKey(&reference);
      ASSERT_EQ(reference, sorted) << "shape " << s;
      SparseGradient merged;
      bool dense = false;
      EXPECT_TRUE(Merge(runs, &merged, &dense)) << "shape " << s;
      EXPECT_EQ(merged, reference) << "shape " << s;
      if (total > 0) {
        EXPECT_EQ(dense, span != Span::kSparse) << "shape " << s;
      }
      if (span == Span::kFull && total > 0) {
        EXPECT_EQ(merged.front().key, 0u);
      }
    }
  }
}

TEST(MergeSortedRunsTest, PlacesWhileTheBitmapFitsInOneWordPerPair) {
  // Two keys spanning 128 need two words: placement. One more key of
  // span needs a third word, more than there are pairs: merge.
  for (const uint64_t hi : {uint64_t{127}, uint64_t{128}}) {
    const Runs runs{{hi}, {0.5}, {1}};
    Runs both = runs;
    both.keys.push_back(0);
    both.values.push_back(-0.5);
    both.ends.push_back(2);
    SparseGradient merged;
    bool dense = false;
    ASSERT_TRUE(Merge(both, &merged, &dense));
    EXPECT_EQ(dense, hi == 127);
    EXPECT_EQ(merged, (SparseGradient{{0, -0.5}, {hi, 0.5}}));
  }
}

TEST(MergeSortedRunsTest, RejectsAKeyRepeatedAcrossRunsOnBothPaths) {
  for (const uint64_t top : {uint64_t{9}, uint64_t{1} << 20}) {
    // Key 5 is in both runs; each run alone strictly increases.
    const Runs runs{{0, 5, top, 5, 7}, {1, 2, 3, 4, 5}, {3, 5}};
    SparseGradient merged;
    bool dense = false;
    EXPECT_FALSE(Merge(runs, &merged, &dense)) << "top " << top;
    EXPECT_EQ(dense, top == 9);
  }
  // Key 0 repeated, in runs of one key each.
  const Runs zeros{{0, 0}, {1, 2}, {1, 2}};
  SparseGradient merged;
  EXPECT_FALSE(Merge(zeros, &merged));
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
