#include "sketch/kll_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/random.h"

namespace sketchml::sketch {
namespace {

double TrueRankFraction(const std::vector<double>& sorted, double value) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), value);
  return static_cast<double>(it - sorted.begin()) / sorted.size();
}

TEST(KllSketchTest, EmptySketchChecksOnQuery) {
  KllSketch sketch;
  EXPECT_EQ(sketch.Count(), 0u);
  EXPECT_DEATH(sketch.Quantile(0.5), "");
  EXPECT_DEATH(sketch.Min(), "");
}

TEST(KllSketchTest, SmallStreamIsExact) {
  KllSketch sketch(256);
  for (double v : {4.0, 2.0, 1.0, 3.0}) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.Min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Max(), 4.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 4.0);
  EXPECT_NEAR(sketch.Quantile(0.5), 2.0, 1.0);
}

class KllErrorTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KllErrorTest, RankErrorSmall) {
  const int k = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  KllSketch sketch(k, /*seed=*/5);
  common::Rng rng(31);
  std::vector<double> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Heavy-tailed mix to mimic gradient value distributions.
    const double v = rng.NextBernoulli(0.9) ? rng.NextGaussian() * 0.01
                                            : rng.NextGaussian();
    data.push_back(v);
    sketch.Update(v);
  }
  std::sort(data.begin(), data.end());

  // Expected rank error ~ O(1/k); allow a safety factor.
  const double tolerance = k >= 256 ? 0.02 : 0.05;
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double estimate = sketch.Quantile(q);
    EXPECT_NEAR(TrueRankFraction(data, estimate), q, tolerance)
        << "k=" << k << " n=" << n << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, KllErrorTest,
                         ::testing::Combine(::testing::Values(128, 256, 512),
                                            ::testing::Values(10000, 100000)));

TEST(KllSketchTest, SpaceIsBounded) {
  KllSketch sketch(256);
  common::Rng rng(37);
  for (int i = 0; i < 500000; ++i) sketch.Update(rng.NextDouble());
  // Retained items ~ k * sum(decay^i) = k * 3 = 768; generous bound.
  EXPECT_LT(sketch.NumRetained(), 4096u);
  EXPECT_EQ(sketch.Count(), 500000u);
}

TEST(KllSketchTest, MinMaxAlwaysExact) {
  KllSketch sketch(64);
  common::Rng rng(41);
  double lo = 1e18, hi = -1e18;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.NextGaussian() * 100;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sketch.Update(v);
  }
  EXPECT_DOUBLE_EQ(sketch.Min(), lo);
  EXPECT_DOUBLE_EQ(sketch.Max(), hi);
}

TEST(KllSketchTest, MergeMatchesCombinedStream) {
  common::Rng rng(43);
  KllSketch a(256, 1), b(256, 2);
  std::vector<double> all;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.NextGaussian();
    all.push_back(v);
    (i % 2 == 0 ? a : b).Update(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), 50000u);
  std::sort(all.begin(), all.end());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(TrueRankFraction(all, a.Quantile(q)), q, 0.03);
  }
}

TEST(KllSketchTest, MergeEmptySketches) {
  KllSketch a, b;
  a.Merge(b);
  EXPECT_EQ(a.Count(), 0u);
  b.Update(1.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 1u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 1.0);
}

TEST(KllSketchTest, EqualDepthSplitsAreMonotoneAndCoverRange) {
  KllSketch sketch(256);
  common::Rng rng(53);
  for (int i = 0; i < 30000; ++i) sketch.Update(rng.NextGaussian() * 0.1);
  const auto splits = sketch.EqualDepthSplits(256);
  ASSERT_EQ(splits.size(), 257u);
  EXPECT_DOUBLE_EQ(splits.front(), sketch.Min());
  EXPECT_DOUBLE_EQ(splits.back(), sketch.Max());
  EXPECT_TRUE(std::is_sorted(splits.begin(), splits.end()));
}

TEST(KllSketchTest, EqualDepthSplitsEqualizePopulation) {
  KllSketch sketch(512);
  common::Rng rng(59);
  std::vector<double> data;
  for (int i = 0; i < 100000; ++i) {
    const double v = std::exp(rng.NextGaussian());  // Very skewed.
    data.push_back(v);
    sketch.Update(v);
  }
  const int q = 16;
  const auto splits = sketch.EqualDepthSplits(q);
  std::sort(data.begin(), data.end());
  for (int b = 0; b < q; ++b) {
    const auto lo = std::lower_bound(data.begin(), data.end(), splits[b]);
    const auto hi = std::lower_bound(data.begin(), data.end(), splits[b + 1]);
    const double frac = static_cast<double>(hi - lo) / data.size();
    EXPECT_NEAR(frac, 1.0 / q, 0.03) << "bucket " << b;
  }
}

TEST(KllSketchTest, SerializeRoundTripPreservesSummary) {
  KllSketch sketch(256, /*seed=*/7);
  common::Rng rng(61);
  for (int i = 0; i < 50000; ++i) sketch.Update(rng.NextGaussian());

  common::ByteWriter writer(sketch.SerializedSize());
  sketch.Serialize(&writer);
  EXPECT_EQ(writer.size(), sketch.SerializedSize());

  common::ByteReader reader(writer.buffer());
  KllSketch restored;
  ASSERT_TRUE(KllSketch::Deserialize(&reader, &restored).ok());
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(restored.Count(), sketch.Count());
  EXPECT_DOUBLE_EQ(restored.Min(), sketch.Min());
  EXPECT_DOUBLE_EQ(restored.Max(), sketch.Max());
  // The wire format carries the retained items verbatim, so every
  // quantile estimate survives bit-for-bit.
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(restored.Quantile(q), sketch.Quantile(q)) << q;
  }
}

TEST(KllSketchTest, DeserializeRejectsCorruptPayloads) {
  KllSketch sketch(64);
  for (int i = 0; i < 1000; ++i) sketch.Update(i * 0.5);
  common::ByteWriter writer;
  sketch.Serialize(&writer);

  // Truncated at every prefix length: must fail, never crash.
  const std::vector<uint8_t>& bytes = writer.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    common::ByteReader reader(bytes.data(), len);
    KllSketch out;
    EXPECT_FALSE(KllSketch::Deserialize(&reader, &out).ok()) << len;
  }

  // Bad version byte.
  std::vector<uint8_t> bad = bytes;
  bad[0] = 0xFF;
  common::ByteReader reader(bad);
  KllSketch out;
  EXPECT_FALSE(KllSketch::Deserialize(&reader, &out).ok());

  // A NaN item, which Deserialize would otherwise have to sort: the last
  // 8 bytes are the top level's last item.
  std::vector<uint8_t> nan_item = bytes;
  const double nan = std::nan("");
  std::memcpy(nan_item.data() + nan_item.size() - sizeof(nan), &nan,
              sizeof(nan));
  common::ByteReader nan_reader(nan_item);
  EXPECT_EQ(KllSketch::Deserialize(&nan_reader, &out).code(),
            common::StatusCode::kCorruptedData);

  // A k past kMaxK, which the constructor would CHECK or fail to reserve:
  // k sits after the version byte.
  for (uint32_t k : {uint32_t{1} << 31, (uint32_t{1} << 31) - 1,
                     static_cast<uint32_t>(KllSketch::kMaxK) + 1}) {
    std::vector<uint8_t> big_k = bytes;
    std::memcpy(big_k.data() + 1, &k, sizeof(k));
    common::ByteReader k_reader(big_k);
    EXPECT_EQ(KllSketch::Deserialize(&k_reader, &out).code(),
              common::StatusCode::kCorruptedData)
        << k;
  }

  // Hand-built blobs: version, k, count, min, max, level count, then each
  // level's length and items.
  const auto blob = [](uint64_t count,
                       const std::vector<std::pair<uint64_t, size_t>>& levels) {
    common::ByteWriter w;
    w.WriteU8(1);
    w.WriteU32(64);
    w.WriteU64(count);
    w.WriteDouble(0.0);
    w.WriteDouble(1.0);
    w.WriteVarint(levels.size());
    for (const auto& [length, items] : levels) {
      w.WriteVarint(length);
      for (size_t i = 0; i < items; ++i) w.WriteDouble(0.5);
    }
    return w.buffer();
  };
  // A level length of 2^40 with only 4 items on the wire: rejected before
  // allocating.
  const auto huge_level = blob(uint64_t{1} << 40, {{uint64_t{1} << 40, 4}});
  common::ByteReader huge_reader(huge_level);
  EXPECT_EQ(KllSketch::Deserialize(&huge_reader, &out).code(),
            common::StatusCode::kCorruptedData);
  // Two items at level 63 weigh 2^64, which wraps to 0: the weights would
  // sum to the count of 2 with level 0's two items.
  std::vector<std::pair<uint64_t, size_t>> wrapping(64, {0, 0});
  wrapping[0] = {2, 2};
  wrapping[63] = {2, 2};
  const auto wrap = blob(2, wrapping);
  common::ByteReader wrap_reader(wrap);
  EXPECT_EQ(KllSketch::Deserialize(&wrap_reader, &out).code(),
            common::StatusCode::kCorruptedData);
  // The same shape without the wrap parses.
  wrapping[63] = {0, 0};
  const auto fine = blob(2, wrapping);
  common::ByteReader fine_reader(fine);
  EXPECT_TRUE(KllSketch::Deserialize(&fine_reader, &out).ok());
}

TEST(KllSketchTest, ConstructorBoundsK) {
  EXPECT_DEATH(KllSketch(KllSketch::kMinK - 1), "");
  EXPECT_DEATH(KllSketch(KllSketch::kMaxK + 1), "");
  KllSketch largest(KllSketch::kMaxK);
  largest.Update(1.0);
  EXPECT_EQ(largest.Count(), 1u);
}

TEST(KllSketchTest, UpdateWeightedMatchesRepeatedUpdates) {
  // Weight-w insertion must estimate ranks like w copies of the value.
  KllSketch weighted(256, /*seed=*/9);
  KllSketch repeated(256, /*seed=*/9);
  common::Rng rng(67);
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextGaussian();
    weighted.UpdateWeighted(v, 4);
    for (int r = 0; r < 4; ++r) repeated.Update(v);
  }
  EXPECT_EQ(weighted.Count(), repeated.Count());
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(weighted.Quantile(q), repeated.Quantile(q), 0.15) << q;
  }
}

TEST(KllSketchTest, UpdateWeightedRequiresPowerOfTwo) {
  KllSketch sketch(64);
  sketch.UpdateWeighted(1.0, 1);
  sketch.UpdateWeighted(2.0, 8);
  EXPECT_EQ(sketch.Count(), 9u);
  EXPECT_DEATH(sketch.UpdateWeighted(3.0, 3), "");
  EXPECT_DEATH(sketch.UpdateWeighted(3.0, 0), "");
}

// The build KllSketch had before levels >= 1 stayed sorted: per-item
// updates and a std::sort at every compaction. The sketch must reach the
// same summary bit for bit.
struct ReferenceKll {
  ReferenceKll(int k, uint64_t seed) : k(k), rng(seed), levels(1) {}

  size_t Capacity(size_t level) const {
    const double depth = static_cast<double>(levels.size() - 1 - level);
    return std::max<size_t>(8, static_cast<size_t>(k * std::pow(2.0 / 3.0, depth)));
  }
  void Compact(size_t level) {
    if (levels[level].size() < 2) return;
    if (level + 1 >= levels.size()) levels.emplace_back();
    std::vector<double>& buf = levels[level];
    std::sort(buf.begin(), buf.end());
    const size_t phase = rng.NextBounded(2);
    const size_t n = buf.size() & ~size_t{1};
    for (size_t i = phase; i < n; i += 2) levels[level + 1].push_back(buf[i]);
    if (buf.size() > n) buf[0] = buf[n];
    buf.resize(buf.size() - n);
  }
  void Cascade(size_t first) {
    for (size_t level = first; level < levels.size(); ++level) {
      if (levels[level].size() >= Capacity(level)) Compact(level);
    }
  }
  void Range(double lo, double hi, uint64_t weight) {
    min = count == 0 ? lo : std::min(min, lo);
    max = count == 0 ? hi : std::max(max, hi);
    count += weight;
  }
  void UpdateWeighted(double v, uint64_t weight) {
    Range(v, v, weight);
    const size_t target = std::countr_zero(weight);
    if (target >= levels.size()) levels.resize(target + 1);
    levels[target].push_back(v);
    if (levels[target].size() >= Capacity(target)) Cascade(target);
  }
  void Merge(const ReferenceKll& other) {
    if (other.count == 0) return;
    Range(other.min, other.max, other.count);
    if (levels.size() < other.levels.size()) levels.resize(other.levels.size());
    for (size_t level = 0; level < other.levels.size(); ++level) {
      levels[level].insert(levels[level].end(), other.levels[level].begin(),
                           other.levels[level].end());
    }
    Cascade(0);
  }
  // Wire format of KllSketch::Serialize, levels in their stored order.
  void Serialize(common::ByteWriter* writer) const {
    writer->WriteU8(1);
    writer->WriteU32(static_cast<uint32_t>(k));
    writer->WriteU64(count);
    writer->WriteDouble(min);
    writer->WriteDouble(max);
    writer->WriteVarint(levels.size());
    for (const auto& level : levels) {
      writer->WriteVarint(level.size());
      for (double v : level) writer->WriteDouble(v);
    }
  }

  int k;
  common::Rng rng;
  std::vector<std::vector<double>> levels;
  uint64_t count = 0;
  double min = 0.0, max = 0.0;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Reference state as a KllSketch (Deserialize accepts unsorted levels).
KllSketch FromReference(const ReferenceKll& ref, uint64_t seed) {
  common::ByteWriter writer;
  ref.Serialize(&writer);
  common::ByteReader reader(writer.buffer());
  KllSketch out;
  EXPECT_TRUE(KllSketch::Deserialize(&reader, &out, seed).ok());
  return out;
}

void ExpectMatchesReference(const KllSketch& got, const ReferenceKll& ref) {
  ASSERT_EQ(got.Count(), ref.count);
  if (ref.count == 0) return;
  EXPECT_TRUE(got.InvariantsHold());
  EXPECT_EQ(Bits(got.Min()), Bits(ref.min));
  EXPECT_EQ(Bits(got.Max()), Bits(ref.max));
  const KllSketch want = FromReference(ref, 1);
  EXPECT_EQ(got.SerializedSize(), want.SerializedSize());
  const auto got_items = got.RetainedItems();
  const auto want_items = want.RetainedItems();
  ASSERT_EQ(got_items.size(), want_items.size());
  for (size_t i = 0; i < got_items.size(); ++i) {
    ASSERT_EQ(Bits(got_items[i].first), Bits(want_items[i].first)) << i;
    ASSERT_EQ(got_items[i].second, want_items[i].second) << i;
  }
  for (int splits : {1, 7, 255}) {
    const auto a = got.EqualDepthSplits(splits);
    const auto b = want.EqualDepthSplits(splits);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(Bits(a[i]), Bits(b[i]));
  }
  for (double q : {0.01, 0.3, 0.5, 0.99}) {
    EXPECT_EQ(Bits(got.Quantile(q)), Bits(want.Quantile(q))) << q;
  }
}

// Gaussian values, or (heavy) a handful of distinct values with many
// repeats; neither contains -0.0, whose tie order with +0.0 may differ.
std::vector<double> Stream(size_t n, uint64_t seed, bool heavy) {
  common::Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = heavy && rng.NextBernoulli(0.8)
            ? 0.125 * static_cast<double>(rng.NextBounded(6)) - 0.25
            : rng.NextGaussian();
  }
  return values;
}

TEST(KllReferenceTest, UpdatesMatchSortEveryCompactionBuild) {
  for (int k : {8, 128, 256}) {
    for (size_t n : {1u, 7u, 129u, 3100u, 100000u}) {
      for (bool heavy : {false, true}) {
        SCOPED_TRACE(testing::Message() << "k=" << k << " n=" << n
                                        << " heavy=" << heavy);
        const std::vector<double> values = Stream(n, 1000 + n + k, heavy);
        ReferenceKll ref(k, 3);
        KllSketch per_item(k, 3), batched(k, 3), chunked(k, 3);
        for (double v : values) {
          ref.UpdateWeighted(v, 1);
          per_item.Update(v);
        }
        batched.UpdateAll(values);
        // Uneven chunks start mid-level and cross capacity boundaries.
        for (size_t lo = 0, len = 1; lo < n; lo += len, len = len * 3 + 1) {
          chunked.UpdateAll(std::vector<double>(
              values.begin() + lo, values.begin() + std::min(n, lo + len)));
        }
        ExpectMatchesReference(per_item, ref);
        ExpectMatchesReference(batched, ref);
        ExpectMatchesReference(chunked, ref);
      }
    }
  }
}

// The §3.2 split rule, one Quantile call per split: Min(), then each
// Quantile(i / q) raised to the previous split, then Max() raised the
// same way. EqualDepthSplits answers every rank from one sorted pass and
// must return exactly this.
std::vector<double> QuantilePerSplit(const KllSketch& sketch,
                                     int num_splits) {
  std::vector<double> splits;
  splits.push_back(sketch.Min());
  for (int i = 1; i < num_splits; ++i) {
    double v = sketch.Quantile(static_cast<double>(i) / num_splits);
    if (v < splits.back()) v = splits.back();
    splits.push_back(v);
  }
  double hi = sketch.Max();
  if (hi < splits.back()) hi = splits.back();
  splits.push_back(hi);
  return splits;
}

TEST(KllReferenceTest, EqualDepthSplitsMatchQuantilePerSplit) {
  for (int k : {8, 128, 256}) {
    for (size_t n : {1u, 2u, 6u, 200u, 257u, 3100u, 100000u}) {
      for (bool heavy : {false, true}) {
        // Heavy: a handful of tied values. Otherwise sign-mixed
        // |N(0,1)|^3, the skewed shape of gradient values.
        std::vector<double> values = Stream(n, 4000 + n + k, heavy);
        if (!heavy) {
          for (double& v : values) v = v * v * v;
        }
        KllSketch per_item(k, 3), batched(k, 3);
        for (double v : values) per_item.Update(v);
        batched.UpdateAll(values);
        for (const KllSketch* sketch : {&per_item, &batched}) {
          for (int num_splits : {1, 2, 7, 256}) {
            SCOPED_TRACE(testing::Message()
                         << "k=" << k << " n=" << n << " heavy=" << heavy
                         << " batched=" << (sketch == &batched)
                         << " splits=" << num_splits);
            const auto got = sketch->EqualDepthSplits(num_splits);
            const auto want = QuantilePerSplit(*sketch, num_splits);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(Bits(got[i]), Bits(want[i])) << i;
            }
          }
        }
      }
    }
  }
}

// Heavy ties across levels: the merged levels must order equal values by
// ascending level, as sorting (value, weight) pairs does, or a rank that
// lands inside a run of ties picks the wrong item.
TEST(KllReferenceTest, EqualDepthSplitsMatchQuantilePerSplitOnHeavyTies) {
  for (int k : {8, 128, 512}) {
    for (size_t n : {37u, 3113u, 16296u, 100000u}) {
      for (size_t distinct : {1u, 2u, 5u}) {
        common::Rng rng(n + distinct);
        std::vector<double> values(n);
        for (double& v : values) {
          v = static_cast<double>(rng.NextBounded(distinct)) * 0.25;
        }
        KllSketch sketch(k, 7);
        sketch.UpdateAll(values);
        for (int num_splits : {3, 16, 256}) {
          SCOPED_TRACE(testing::Message()
                       << "k=" << k << " n=" << n << " distinct=" << distinct
                       << " splits=" << num_splits);
          const auto got = sketch.EqualDepthSplits(num_splits);
          const auto want = QuantilePerSplit(sketch, num_splits);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(Bits(got[i]), Bits(want[i])) << i;
          }
        }
        // The retained items are ordered by (value, weight).
        const auto items = sketch.RetainedItems();
        EXPECT_TRUE(std::is_sorted(items.begin(), items.end()));
      }
    }
  }
}

TEST(KllReferenceTest, MergeWeightedAndSerializedSequencesMatch) {
  for (int k : {8, 128, 256}) {
    for (size_t n : {1u, 7u, 129u, 3100u, 100000u}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " n=" << n);
      const std::vector<double> a_values = Stream(n, 7 * n + k, true);
      const std::vector<double> b_values = Stream(n / 2 + 1, 11 * n, false);
      ReferenceKll ref_a(k, 5), ref_b(k, 6);
      KllSketch a(k, 5), b(k, 6);
      for (double v : a_values) ref_a.UpdateWeighted(v, 1);
      a.UpdateAll(a_values);
      common::Rng rng(n);
      for (double v : b_values) {
        const uint64_t weight = uint64_t{1} << rng.NextBounded(5);
        ref_b.UpdateWeighted(v, weight);
        b.UpdateWeighted(v, weight);
      }
      ExpectMatchesReference(b, ref_b);
      ref_a.Merge(ref_b);
      a.Merge(b);
      ExpectMatchesReference(a, ref_a);

      // Serialize -> Deserialize (new seed) -> update -> Merge. The
      // reference blob is the old layout, with unsorted upper levels.
      common::ByteWriter writer;
      a.Serialize(&writer);
      common::ByteReader reader(writer.buffer());
      KllSketch copy;
      ASSERT_TRUE(KllSketch::Deserialize(&reader, &copy, 9).ok());
      KllSketch old_copy = FromReference(ref_a, 9);
      ReferenceKll ref_copy = ref_a;
      ref_copy.rng = common::Rng(9);
      for (double v : b_values) {
        ref_copy.UpdateWeighted(v, 1);
        copy.Update(v);
      }
      old_copy.UpdateAll(b_values);
      ExpectMatchesReference(copy, ref_copy);
      ExpectMatchesReference(old_copy, ref_copy);
      ref_b.Merge(ref_copy);
      b.Merge(copy);
      ExpectMatchesReference(b, ref_b);
    }
  }
}

// Sign-mixed magnitudes |N(0,1)|^3: the shape of one SketchML stream.
std::vector<double> GradientMagnitudes(size_t n, uint64_t seed) {
  std::vector<double> values = Stream(n, seed, /*heavy=*/false);
  for (double& v : values) v = std::abs(v * v * v);
  return values;
}

// The batched build of an mlp-dense stream at the codec's k: level 0 sits
// at its 8-item floor for all but the first few thousand values.
TEST(KllReferenceTest, MlpDenseStreamAtCodecK) {
  const std::vector<double> values = GradientMagnitudes(265000, 17);
  ReferenceKll ref(128, 3);
  for (double v : values) ref.UpdateWeighted(v, 1);
  KllSketch batched(128, 3);
  batched.UpdateAll(values);
  ExpectMatchesReference(batched, ref);
}

// kdd12-sized streams below the floor (a worker stream holds ~3,100
// values, a broadcast one 16,296), where every level-0 compaction sorts a
// chunk of 11 to 128 items with SortRun, and larger k, whose level 0
// holds more than 128 items.
TEST(KllReferenceTest, StreamsBelowTheFloorAndLargeK) {
  const std::pair<int, size_t> cases[] = {
      {128, 1500}, {128, 6000}, {128, 16296}, {256, 3113}, {256, 20000},
      {512, 3113}, {512, 20000}};
  for (const auto& [k, n] : cases) {
    for (bool heavy : {false, true}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " n=" << n
                                      << " heavy=" << heavy);
      std::vector<double> values = Stream(n, 5000 + n + k, heavy);
      if (!heavy) {
        for (double& v : values) v = std::abs(v * v * v);
      }
      ReferenceKll ref(k, 11);
      for (double v : values) ref.UpdateWeighted(v, 1);
      KllSketch batched(k, 11), per_item(k, 11);
      batched.UpdateAll(values);
      for (double v : values) per_item.Update(v);
      ExpectMatchesReference(batched, ref);
      ExpectMatchesReference(per_item, ref);
    }
  }
}

// Odd level-0 capacities (85, 37, 25 and 11 at k = 128) leave their
// largest item behind, and it joins the next chunk. Chunks that end right
// after a compaction, one item later, or mid-chunk exercise the leftover
// on both the chunk path and the fill path.
TEST(KllReferenceTest, OddCapacityLeftoversJoinTheNextChunk) {
  const std::vector<double> values = GradientMagnitudes(16296, 59);
  for (size_t len : {1u, 10u, 11u, 12u, 36u, 37u, 38u, 85u, 86u, 200u}) {
    SCOPED_TRACE(testing::Message() << "len=" << len);
    ReferenceKll ref(128, 13);
    KllSketch chunked(128, 13);
    for (size_t lo = 0; lo < values.size(); lo += len) {
      const size_t hi = std::min(values.size(), lo + len);
      for (size_t i = lo; i < hi; ++i) ref.UpdateWeighted(values[i], 1);
      chunked.UpdateAll(std::span(values).subspan(lo, hi - lo));
    }
    ExpectMatchesReference(chunked, ref);
  }
}

// k = 8 starts at the floor with a single level: the first block's
// compaction adds level 1, as Compact does.
TEST(KllReferenceTest, FloorFromTheFirstBlockAtK8) {
  for (size_t n : {8u, 9u, 16u, 24u, 1000u, 20000u}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const std::vector<double> values = GradientMagnitudes(n, 100 + n);
    ReferenceKll ref(8, 4);
    for (double v : values) ref.UpdateWeighted(v, 1);
    KllSketch batched(8, 4);
    batched.UpdateAll(values);
    ExpectMatchesReference(batched, ref);
  }
}

// Chunks that end mid-block leave level 0 partly full, so the next call
// finishes that block on the per-item path before batching again; one
// long chunk reaches the floor partway through.
TEST(KllReferenceTest, ChunksStartMidBlockAndReachTheFloorMidCall) {
  const std::vector<double> values = GradientMagnitudes(60000, 23);
  for (size_t first : {3u, 5000u, 20000u}) {
    SCOPED_TRACE(testing::Message() << "first=" << first);
    ReferenceKll ref(128, 5);
    for (double v : values) ref.UpdateWeighted(v, 1);
    KllSketch chunked(128, 5);
    // The first chunk, then chunks cycling through 1 to 13 items.
    for (size_t lo = 0, len = first; lo < values.size(); len = len % 13 + 1) {
      const size_t hi = std::min(values.size(), lo + len);
      chunked.UpdateAll(std::span(values).subspan(lo, hi - lo));
      lo = hi;
    }
    ExpectMatchesReference(chunked, ref);
  }
}

// Merge, UpdateWeighted and Deserialize can leave a level over capacity;
// the next cascade from level 0 must still visit every level.
TEST(KllReferenceTest, RescanTriggersThenUpdateAll) {
  const std::vector<double> a_values = GradientMagnitudes(30000, 31);
  const std::vector<double> b_values = GradientMagnitudes(9000, 37);
  const std::vector<double> after = GradientMagnitudes(40000, 41);
  for (int k : {8, 128}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ReferenceKll ref_a(k, 6), ref_b(k, 7);
    KllSketch a(k, 6), b(k, 7);
    for (double v : a_values) ref_a.UpdateWeighted(v, 1);
    for (double v : b_values) ref_b.UpdateWeighted(v, 1);
    a.UpdateAll(a_values);
    b.UpdateAll(b_values);

    ref_a.Merge(ref_b);
    a.Merge(b);
    for (double v : after) ref_a.UpdateWeighted(v, 1);
    a.UpdateAll(after);
    ExpectMatchesReference(a, ref_a);

    // A weight that adds levels above the top, then one in the middle.
    for (uint64_t weight : {uint64_t{1} << 20, uint64_t{4}}) {
      ref_a.UpdateWeighted(0.5, weight);
      a.UpdateWeighted(0.5, weight);
      for (double v : after) ref_a.UpdateWeighted(v, 1);
      a.UpdateAll(after);
      ExpectMatchesReference(a, ref_a);
    }

    common::ByteWriter writer;
    a.Serialize(&writer);
    common::ByteReader reader(writer.buffer());
    KllSketch copy;
    ASSERT_TRUE(KllSketch::Deserialize(&reader, &copy, 9).ok());
    ReferenceKll ref_copy = ref_a;
    ref_copy.rng = common::Rng(9);
    for (double v : after) ref_copy.UpdateWeighted(v, 1);
    copy.UpdateAll(after);
    ExpectMatchesReference(copy, ref_copy);
  }
}

// +0.0 and -0.0 compare equal, so which of the two a compaction keeps may
// differ from the reference's; read -0.0 as +0.0, the retained items are
// the reference's multiset of bit patterns, and both zeros survive.
TEST(KllReferenceTest, SignedZerosAreKeptAsBitPatterns) {
  common::Rng rng(43);
  std::vector<double> values(50000);
  for (double& v : values) {
    const uint64_t pick = rng.NextBounded(4);
    v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.NextGaussian();
  }
  for (int k : {8, 128}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ReferenceKll ref(k, 8);
    for (double v : values) ref.UpdateWeighted(v, 1);
    KllSketch batched(k, 8);
    batched.UpdateAll(values);
    const auto canonical = [](const std::vector<std::pair<double, uint64_t>>&
                                  items) {
      std::vector<std::pair<uint64_t, uint64_t>> out;
      for (const auto& [v, w] : items) out.emplace_back(Bits(v + 0.0), w);
      std::sort(out.begin(), out.end());
      return out;
    };
    const auto got = batched.RetainedItems();
    EXPECT_EQ(canonical(got), canonical(FromReference(ref, 1).RetainedItems()));
    size_t negative_zeros = 0;
    size_t positive_zeros = 0;
    for (const auto& [v, w] : got) {
      negative_zeros += Bits(v) == Bits(-0.0);
      positive_zeros += Bits(v) == Bits(0.0);
    }
    EXPECT_GT(negative_zeros, 0u);
    EXPECT_GT(positive_zeros, 0u);
  }
}

// UpdateAll publishes the same sketch/kll/* totals as the per-item loop.
TEST(KllSketchTest, UpdateAllCountsLikeThePerItemLoop) {
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  const auto counts = [] {
    const auto snap = obs::MetricsRegistry::Global().Snapshot();
    return std::pair(snap.CounterValueOf("sketch/kll/compactions"),
                     snap.CounterValueOf("sketch/kll/updates"));
  };
  const std::vector<double> values = GradientMagnitudes(100000, 47);
  for (int k : {8, 128}) {
    SCOPED_TRACE(testing::Message() << "k=" << k);
    const auto start = counts();
    KllSketch per_item(k, 2);
    for (double v : values) per_item.Update(v);
    const auto middle = counts();
    KllSketch batched(k, 2);
    batched.UpdateAll(values);
    const auto end = counts();
    EXPECT_EQ(middle.second - start.second, values.size());
    EXPECT_EQ(end.second - middle.second, values.size());
    EXPECT_GT(middle.first - start.first, 0.0);
    EXPECT_EQ(end.first - middle.first, middle.first - start.first);
  }
  obs::SetMetricsEnabled(was_enabled);
}

TEST(KllSketchTest, NormalizedRankErrorShrinksWithK) {
  const double e128 = KllSketch::NormalizedRankError(128);
  const double e256 = KllSketch::NormalizedRankError(256);
  const double e512 = KllSketch::NormalizedRankError(512);
  EXPECT_GT(e128, e256);
  EXPECT_GT(e256, e512);
  // The published constant for k=256 is ~1.6% — the SLO gate's window.
  EXPECT_NEAR(e256, 0.0156, 0.002);
  KllSketch sketch(256);
  EXPECT_DOUBLE_EQ(sketch.NormalizedRankError(),
                   KllSketch::NormalizedRankError(256));
}

}  // namespace
}  // namespace sketchml::sketch
