// Scalar-vs-SIMD differential property tests for the dispatch seam
// (src/common/simd.h).
//
// The contract under test is strict: every compiled kernel level must be
// *bit-identical* to the scalar reference — same bucket indexes, same
// clamp counts, same hashed bins, same wire bytes — not merely
// equivalent. Each property is exercised on every level DetectedLevel()
// allows, so on an AVX2 host this covers both paths in one binary (and
// the forced-scalar ctest entries re-run the rest of the suite with
// SKETCHML_SIMD=off for the dispatch-default path).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/murmur_hash.h"
#include "common/simd.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "core/sketchml_codec.h"
#include "gtest/gtest.h"
#include "sketch/min_max_sketch.h"

namespace sketchml {
namespace {

namespace simd = common::simd;

std::vector<simd::Level> CompiledLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::LevelSupported(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

/// Pins the dispatch to one level for a scope, restoring the previous
/// level on exit so tests stay order-independent.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level level) : saved_(simd::ActiveLevel()) {
    simd::SetActiveLevel(level);
  }
  ~LevelGuard() { simd::SetActiveLevel(saved_); }

 private:
  simd::Level saved_;
};

/// Element-at-a-time oracle: the exact upper_bound + clamp definition
/// BucketOf has always used.
std::pair<std::vector<uint16_t>, size_t> BucketOracle(
    const std::vector<double>& splits, const std::vector<double>& values) {
  std::vector<uint16_t> out(values.size());
  size_t clamped_count = 0;
  const int top = static_cast<int>(splits.size()) - 2;
  for (size_t i = 0; i < values.size(); ++i) {
    const auto it =
        std::upper_bound(splits.begin(), splits.end(), values[i]);
    const int idx = static_cast<int>(it - splits.begin()) - 1;
    const int clamped = std::clamp(idx, 0, top);
    clamped_count += static_cast<size_t>(clamped != idx);
    out[i] = static_cast<uint16_t>(clamped);
  }
  return {out, clamped_count};
}

std::vector<double> RandomGradientValues(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> small(0.0, 0.05);
  std::normal_distribution<double> large(0.0, 2.0);
  std::vector<double> values(n);
  for (auto& v : values) v = rng() % 10 == 0 ? large(rng) : small(rng);
  return values;
}

TEST(SimdDifferentialTest, BucketSearchMatchesOracleOnEveryLevel) {
  // Split-array sizes straddling the AVX2 chunking (8), the wire maximum
  // (257 = 256 buckets), and the stack-buffer fallback bound (> 2048).
  for (size_t num_splits : {2u, 3u, 7u, 8u, 9u, 16u, 17u, 129u, 257u,
                            300u, 2048u, 2049u, 4096u}) {
    std::vector<double> splits(num_splits);
    for (size_t i = 0; i < num_splits; ++i) {
      splits[i] = -3.0 + 6.0 * static_cast<double>(i) /
                             static_cast<double>(num_splits - 1);
    }
    std::vector<double> values = RandomGradientValues(1003, num_splits);
    // Extremes, exact split hits, and non-finite values.
    values[0] = std::numeric_limits<double>::quiet_NaN();
    values[1] = std::numeric_limits<double>::infinity();
    values[2] = -std::numeric_limits<double>::infinity();
    values[3] = splits.front();
    values[4] = splits.back();
    values[5] = splits[num_splits / 2];
    values[6] = std::nextafter(splits.back(), 1e308);
    values[7] = std::nextafter(splits.front(), -1e308);

    const auto [expected, expected_clamped] = BucketOracle(splits, values);
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      std::vector<uint16_t> out(values.size(), 0xbeef);
      const size_t clamped =
          simd::BucketSearch(splits.data(), splits.size(), values.data(),
                             values.size(), out.data());
      EXPECT_EQ(out, expected) << "level=" << simd::LevelName(level)
                               << " num_splits=" << num_splits;
      EXPECT_EQ(clamped, expected_clamped)
          << "level=" << simd::LevelName(level);
    }
  }
}

TEST(SimdDifferentialTest, BucketSearchDegenerateAndTinyBatches) {
  // All-equal splits (a constant stream collapses every quantile) and
  // duplicated interior splits; empty and 1-element batches.
  const std::vector<std::vector<double>> split_sets = {
      {0.0, 0.0},
      {1.5, 1.5, 1.5, 1.5, 1.5},
      {-1.0, 0.0, 0.0, 0.0, 2.0},
      {0.0, 1.0},
  };
  for (const auto& splits : split_sets) {
    const std::vector<std::vector<double>> batches = {
        {},
        {0.0},
        {1.5},
        {-7.0},
        {7.0},
        {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
        {1.5, 1.5, 1.5, 1.5},
    };
    for (const auto& values : batches) {
      const auto [expected, expected_clamped] = BucketOracle(splits, values);
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        std::vector<uint16_t> out(values.size());
        const size_t clamped =
            simd::BucketSearch(splits.data(), splits.size(), values.data(),
                               values.size(), out.data());
        EXPECT_EQ(out, expected) << "level=" << simd::LevelName(level);
        EXPECT_EQ(clamped, expected_clamped);
      }
    }
  }
}

TEST(SimdDifferentialTest, HashBucketsMatchesHashFunction) {
  std::mt19937_64 rng(99);
  std::vector<uint64_t> keys(517);
  for (auto& k : keys) k = rng();
  keys[0] = 0;
  keys[1] = std::numeric_limits<uint64_t>::max();
  for (uint64_t num_buckets :
       {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{64}, uint64_t{97},
        uint64_t{1} << 16, (uint64_t{1} << 16) + 1, uint64_t{1} << 32}) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{13}, uint64_t{0x9E3779B9}}) {
      const common::HashFunction oracle(seed);
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        std::vector<uint32_t> out(keys.size());
        simd::HashBuckets(keys.data(), keys.size(), seed, num_buckets,
                          out.data());
        for (size_t i = 0; i < keys.size(); ++i) {
          ASSERT_EQ(out[i], oracle.Bucket(keys[i], num_buckets))
              << "level=" << simd::LevelName(level) << " key=" << keys[i]
              << " buckets=" << num_buckets;
        }
      }
    }
  }
}

/// Reimplementation of the pre-batch staged delta encoder (TwoBitWriter +
/// (delta, nbytes) pairs + WriteUintN), kept as the wire-format oracle.
common::Status StagedOracleEncode(const std::vector<uint64_t>& keys,
                                  common::ByteWriter* writer) {
  writer->WriteVarint(keys.size());
  if (keys.empty()) return common::Status::Ok();
  common::TwoBitWriter flags;
  std::vector<std::pair<uint64_t, int>> deltas;
  uint64_t previous = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] <= previous) {
      return common::Status::InvalidArgument(
          "keys must be strictly increasing");
    }
    const uint64_t delta = keys[i] - previous;
    if (delta > std::numeric_limits<uint32_t>::max()) {
      return common::Status::OutOfRange("key delta exceeds 4 bytes");
    }
    int nbytes = 1;
    for (uint64_t v = delta; v > 0xff; v >>= 8) ++nbytes;
    flags.Append(static_cast<uint8_t>(nbytes - 1));
    deltas.emplace_back(delta, nbytes);
    previous = keys[i];
  }
  writer->WriteBytes(flags.bytes());
  for (const auto& [delta, nbytes] : deltas) {
    writer->WriteUintN(delta, nbytes);
  }
  return common::Status::Ok();
}

std::vector<uint64_t> RandomAscendingKeys(size_t n, uint64_t seed,
                                          uint64_t max_step) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> keys(n);
  uint64_t k = rng() % 4;  // Sometimes start at 0.
  for (auto& key : keys) {
    k += 1 + rng() % max_step;
    key = k;
  }
  return keys;
}

TEST(SimdDifferentialTest, DeltaEncodeMatchesStagedOracle) {
  std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      {1},
      {0xffffffffULL},
      // Every width boundary back to back.
      {0xff, 0xff + 0x100, 0xff + 0x100 + 0xffff,
       0xff + 0x100 + 0xffff + 0x10000,
       0xff + 0x100 + 0xffff + 0x10000 + 0xffffff,
       0xff + 0x100 + 0xffff + 0x10000 + 0xffffffULL + 0x1000000,
       0xff + 0x100 + 0xffff + 0x10000 + 0xffffffULL + 0x1000000 +
           0xffffffffULL},
  };
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const uint64_t max_step = seed % 4 == 0 ? 90'000'000 : 1'000;
    cases.push_back(RandomAscendingKeys(seed * 13 % 600, seed, max_step));
  }
  for (const auto& keys : cases) {
    common::ByteWriter expected;
    const common::Status oracle_status = StagedOracleEncode(keys, &expected);
    ASSERT_TRUE(oracle_status.ok());
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      common::ByteWriter writer;
      ASSERT_TRUE(
          compress::DeltaBinaryKeyCodec::Encode(keys, &writer).ok());
      EXPECT_EQ(writer.buffer(), expected.buffer())
          << "level=" << simd::LevelName(level) << " n=" << keys.size();
    }
  }
}

TEST(SimdDifferentialTest, DeltaEncodeErrorsMatchOnEveryLevel) {
  // Unsorted / duplicate keys and >4-byte deltas must fail identically —
  // including when the offending element sits mid-vector-block or in the
  // scalar tail.
  std::vector<std::vector<uint64_t>> bad = {
      {5, 4},
      {1, 1},
      {1, 2, 3, 4, 5, 6, 7, 3},
      {0x1'00000000ULL},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 12},
      {1, 1ULL << 40},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13ULL + (1ULL << 33)},
  };
  for (const auto& keys : bad) {
    common::ByteWriter oracle_writer;
    const auto expected = StagedOracleEncode(keys, &oracle_writer);
    ASSERT_FALSE(expected.ok());
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      common::ByteWriter writer;
      const common::Status status =
          compress::DeltaBinaryKeyCodec::Encode(keys, &writer);
      EXPECT_EQ(status.code(), expected.code())
          << "level=" << simd::LevelName(level);
    }
  }
}

TEST(SimdDifferentialTest, QuantizerBucketsOfMatchesBucketOf) {
  const std::vector<double> build_values = RandomGradientValues(4096, 7);
  for (int num_buckets : {1, 2, 16, 256}) {
    const auto quantizer = compress::QuantileBucketQuantizer::Build(
        build_values, num_buckets);
    std::vector<double> probe = RandomGradientValues(777, 11);
    probe[0] = std::numeric_limits<double>::infinity();
    probe[1] = -std::numeric_limits<double>::infinity();
    probe.push_back(0.0);
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      std::vector<uint16_t> batch(probe.size());
      quantizer.BucketsOf(probe, batch.data());
      for (size_t i = 0; i < probe.size(); ++i) {
        ASSERT_EQ(static_cast<int>(batch[i]), quantizer.BucketOf(probe[i]))
            << "level=" << simd::LevelName(level) << " i=" << i;
      }
    }
  }
}

TEST(SimdDifferentialTest, MinMaxBatchMatchesPerElement) {
  std::mt19937_64 rng(21);
  const size_t n = 700;
  std::vector<uint64_t> keys(n);
  std::vector<uint8_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng() % 5000;  // Force collisions and repeated keys.
    values[i] = static_cast<uint8_t>(rng() % 256);
  }
  for (simd::Level level : CompiledLevels()) {
    LevelGuard guard(level);
    sketch::MinMaxSketch batch_sketch(3, 97, 13);
    sketch::MinMaxSketch scalar_sketch(3, 97, 13);
    std::vector<uint32_t> scratch;
    batch_sketch.InsertBatch(keys, values, &scratch);
    for (size_t i = 0; i < n; ++i) scalar_sketch.Insert(keys[i], values[i]);
    common::ByteWriter batch_bytes, scalar_bytes;
    batch_sketch.Serialize(&batch_bytes);
    scalar_sketch.Serialize(&scalar_bytes);
    EXPECT_EQ(batch_bytes.buffer(), scalar_bytes.buffer())
        << "level=" << simd::LevelName(level);
    EXPECT_EQ(batch_sketch.NumInsertions(), scalar_sketch.NumInsertions());

    std::vector<uint64_t> probe(keys);
    probe.push_back(999'999);  // Never inserted: must stay kEmpty.
    std::vector<uint8_t> answers(probe.size());
    batch_sketch.QueryBatch(probe, answers.data(), &scratch);
    for (size_t i = 0; i < probe.size(); ++i) {
      ASSERT_EQ(answers[i], scalar_sketch.Query(probe[i]))
          << "level=" << simd::LevelName(level) << " i=" << i;
    }
    // Empty batches are no-ops.
    batch_sketch.InsertBatch({}, {}, &scratch);
    batch_sketch.QueryBatch({}, answers.data(), &scratch);
    EXPECT_EQ(batch_sketch.NumInsertions(), n);
  }
}

common::SparseGradient MakeGradient(size_t n, uint64_t dim, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> small(0.0, 0.05);
  std::normal_distribution<double> large(0.0, 2.0);
  common::SparseGradient grad(n);
  uint64_t key = 0;
  const uint64_t max_step = std::max<uint64_t>(1, dim / (n + 1));
  for (auto& pair : grad) {
    key += 1 + rng() % max_step;
    pair.key = key;
    pair.value = rng() % 10 == 0 ? large(rng) : small(rng);
  }
  return grad;
}

TEST(SimdDifferentialTest, SketchMlEncodeBytesIdenticalAcrossLevels) {
  const auto levels = CompiledLevels();
  for (uint64_t seed : {uint64_t{7}, uint64_t{21}}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{2000}}) {
      const common::SparseGradient grad = MakeGradient(n, 1 << 22, seed);
      std::vector<std::vector<uint8_t>> encodings;
      for (simd::Level level : levels) {
        LevelGuard guard(level);
        core::SketchMlConfig config;
        config.seed = seed;
        core::SketchMlCodec codec(config);
        compress::EncodedGradient encoded;
        ASSERT_TRUE(codec.Encode(grad, &encoded).ok());
        encodings.push_back(encoded.bytes);
        // The encode must decode on every level too (decode queries the
        // sketch through the same dispatched kernels).
        common::SparseGradient decoded;
        ASSERT_TRUE(codec.Decode(encoded, &decoded).ok());
        ASSERT_EQ(decoded.size(), grad.size());
      }
      for (size_t i = 1; i < encodings.size(); ++i) {
        EXPECT_EQ(encodings[i], encodings[0])
            << "level " << simd::LevelName(levels[i])
            << " bytes differ from scalar for n=" << n;
      }
    }
  }
}

TEST(SimdDifferentialTest, QuantileOnlyEncodeBytesIdenticalAcrossLevels) {
  const auto levels = CompiledLevels();
  const common::SparseGradient grad = MakeGradient(1500, 1 << 20, 5);
  std::vector<std::vector<uint8_t>> encodings;
  for (simd::Level level : levels) {
    LevelGuard guard(level);
    core::QuantileOnlyCodec codec;
    compress::EncodedGradient encoded;
    ASSERT_TRUE(codec.Encode(grad, &encoded).ok());
    encodings.push_back(encoded.bytes);
  }
  for (size_t i = 1; i < encodings.size(); ++i) {
    EXPECT_EQ(encodings[i], encodings[0])
        << "level " << simd::LevelName(levels[i]);
  }
}

/// The NaN this host's arithmetic generates (0 * inf, inf - inf).
double GeneratedNan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Random layer operand: mostly N(0, 1), a quarter +-0.0, and with
/// `nans` non-empty also +-inf and those NaNs mixed in.
std::vector<double> DenseOperand(size_t n, std::mt19937_64* rng,
                                 const std::vector<double>& nans) {
  std::normal_distribution<double> normal(0.0, 1.0);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out(n);
  for (auto& v : out) {
    const uint64_t pick = (*rng)() % 64;
    if (pick < 16) {
      v = pick % 2 == 0 ? 0.0 : -0.0;
    } else if (!nans.empty() && pick < 18) {
      v = pick % 2 == 0 ? ((*rng)() % 2 == 0 ? inf : -inf)
                        : nans[(*rng)() % nans.size()];
    } else {
      v = normal(*rng);
    }
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Same bits everywhere, except that two NaNs match whatever their
/// payloads.
bool SameBitsOrBothNan(const std::vector<double>& a,
                       const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(SimdDifferentialTest, DenseLayerKernelsMatchScalarBitForBit) {
  // Shapes straddle every tile edge: instance counts around the 4-lane
  // vectors and 12-instance back-prop tiles, inputs around the 4-row
  // back-prop tiles and 128-row forward blocks, outputs around the
  // 4-double vectors and 32-output panels.
  //
  // Operands come three ways: finite; with +-inf and the host's generated
  // NaN, where every NaN has one payload and the outputs must match bit
  // for bit; and with NaNs of two more payloads. When two NaNs of
  // different payloads meet in one add or multiply, the survivor is the
  // operand the compiler placed first, which C++ does not pin on either
  // level, so that mode checks NaN positions and every other bit.
  struct Shape {
    size_t rows, in, out;
  };
  const Shape shapes[] = {{1, 1, 1},   {3, 5, 3},    {4, 4, 4},
                          {7, 13, 10}, {12, 33, 37}, {13, 130, 33},
                          {60, 257, 70}, {64, 129, 600}};
  const std::vector<std::vector<double>> nan_modes = {
      {},
      {GeneratedNan()},
      {std::numeric_limits<double>::quiet_NaN(),
       std::bit_cast<double>(uint64_t{0x7ff8'0000'0000'1234})}};
  std::mt19937_64 rng(77);
  for (const Shape& shape : shapes) {
    for (size_t mode = 0; mode < nan_modes.size(); ++mode) {
      const auto& nans = nan_modes[mode];
      const auto x = DenseOperand(shape.rows * shape.in, &rng, nans);
      const auto w = DenseOperand(shape.in * shape.out, &rng, nans);
      const auto b = DenseOperand(shape.out, &rng, nans);
      const auto d = DenseOperand(shape.rows * shape.out, &rng, nans);
      const auto g0 = DenseOperand(shape.in * shape.out, &rng, nans);
      const auto gb0 = DenseOperand(shape.out, &rng, nans);
      std::vector<std::vector<double>> ys, gws, gbs, ps;
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        std::vector<double> y(shape.rows * shape.out, 7.0);
        simd::DenseForward(x.data(), w.data(), b.data(), shape.rows,
                           shape.in, shape.out, y.data());
        std::vector<double> gw = g0, gb = gb0;
        simd::DenseWeightGradient(x.data(), d.data(), shape.rows, shape.in,
                                  shape.out, 1.0 / 60.0, gw.data(),
                                  gb.data());
        std::vector<double> p(shape.rows * shape.in, 7.0);
        simd::DenseBackprop(w.data(), d.data(), x.data(), shape.rows,
                            shape.in, shape.out, p.data());
        ys.push_back(std::move(y));
        gws.push_back(std::move(gw));
        gbs.push_back(std::move(gb));
        ps.push_back(std::move(p));
      }
      const auto same = mode < 2 ? &SameBits : &SameBitsOrBothNan;
      for (size_t i = 1; i < ys.size(); ++i) {
        const std::string where = std::to_string(shape.rows) + "x" +
                                  std::to_string(shape.in) + "x" +
                                  std::to_string(shape.out) + " nan mode " +
                                  std::to_string(mode);
        EXPECT_TRUE(same(ys[i], ys[0])) << "forward " << where;
        EXPECT_TRUE(same(gws[i], gws[0])) << "weight grad " << where;
        EXPECT_TRUE(same(gbs[i], gbs[0])) << "bias grad " << where;
        EXPECT_TRUE(same(ps[i], ps[0])) << "back-prop " << where;
      }
    }
  }
}

TEST(SimdDifferentialTest, DenseForwardSkipsZeroInputs) {
  // 0 * inf would be NaN: a zero input (either sign) must add nothing, on
  // every level, and a -0.0 bias with no nonzero input stays -0.0.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {0.0, 2.0, -0.0, 0.0, -0.0, 0.0};  // 2 x 3
  const std::vector<double> w = {inf, inf, inf, inf, inf, inf,
                                 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                                 inf, inf, inf, inf, inf, inf};  // 3 x 6
  const std::vector<double> b = {-0.0, 1.0, -0.0, 0.5, -0.0, 0.0};
  const std::vector<double> expected = {
      2.0, 5.0, 6.0, 8.5, 10.0, 12.0,  // Row 0: b + 2 * w[1].
      -0.0, 1.0, -0.0, 0.5, -0.0, 0.0};  // Row 1: b untouched.
  for (simd::Level level : CompiledLevels()) {
    LevelGuard guard(level);
    std::vector<double> y(12);
    simd::DenseForward(x.data(), w.data(), b.data(), 2, 3, 6, y.data());
    EXPECT_TRUE(SameBits(y, expected)) << "level=" << simd::LevelName(level);
  }
}

// Blocks that stress the compare-and-select rule: ties, +0.0 beside
// -0.0, infinities, and (last) NaN.
std::vector<double> SortBlockInputs(size_t blocks, uint64_t seed, bool nan) {
  std::mt19937_64 rng(seed);
  const double pool[] = {0.0, -0.0, 1.0, -1.0, 0.5,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min()};
  std::vector<double> values(blocks * simd::kSortBlock);
  for (double& v : values) {
    const uint64_t r = rng();
    v = r % 3 == 0 ? pool[(r >> 8) % 8]
                   : std::ldexp(static_cast<double>(r >> 11), -40) - 4096.0;
    if (nan && r % 97 == 0) v = std::numeric_limits<double>::quiet_NaN();
  }
  return values;
}

TEST(SimdDifferentialTest, SortBlocks8MatchesScalarBitForBit) {
  for (bool nan : {false, true}) {
    // 1 to 3 blocks run only the scalar tail; 4 and more the AVX2 body.
    for (size_t blocks : {1u, 3u, 4u, 5u, 37u, 256u}) {
      SCOPED_TRACE(testing::Message() << "blocks=" << blocks << " nan=" << nan);
      const std::vector<double> in = SortBlockInputs(blocks, blocks + nan, nan);
      std::vector<double> want(in.size());
      {
        LevelGuard guard(simd::Level::kScalar);
        simd::SortBlocks8(in.data(), blocks, want.data());
      }
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        std::vector<double> got(in.size());
        simd::SortBlocks8(in.data(), blocks, got.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << simd::LevelName(level);
      }
      // Each block is a sorted permutation of its input's bit patterns.
      for (size_t b = 0; b < blocks; ++b) {
        const auto block = [b](const std::vector<double>& v) {
          std::vector<uint64_t> bits;
          for (size_t i = 0; i < simd::kSortBlock; ++i) {
            bits.push_back(std::bit_cast<uint64_t>(v[b * simd::kSortBlock + i]));
          }
          std::sort(bits.begin(), bits.end());
          return bits;
        };
        EXPECT_EQ(block(want), block(in)) << b;
        if (!nan) {
          EXPECT_TRUE(std::is_sorted(want.begin() + b * simd::kSortBlock,
                                     want.begin() + (b + 1) * simd::kSortBlock))
              << b;
        }
      }
    }
  }
}

// The 0-1 principle: a comparator network that sorts every 0/1 input
// sorts every input.
TEST(SimdDifferentialTest, SortBlocks8NetworkSortsEveryZeroOneInput) {
  for (simd::Level level : CompiledLevels()) {
    LevelGuard guard(level);
    std::vector<double> in(256 * simd::kSortBlock);
    for (size_t mask = 0; mask < 256; ++mask) {
      for (size_t i = 0; i < simd::kSortBlock; ++i) {
        in[mask * simd::kSortBlock + i] = static_cast<double>((mask >> i) & 1);
      }
    }
    std::vector<double> out(in.size());
    simd::SortBlocks8(in.data(), 256, out.data());
    for (size_t mask = 0; mask < 256; ++mask) {
      EXPECT_TRUE(std::is_sorted(out.begin() + mask * simd::kSortBlock,
                                 out.begin() + (mask + 1) * simd::kSortBlock))
          << simd::LevelName(level) << " mask=" << mask;
    }
  }
}

std::vector<uint64_t> SortedBits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  std::sort(bits.begin(), bits.end());
  return bits;
}

// Runs that stress SortRun's network: every kind of tie, +0.0 beside
// -0.0, infinities, denormals, and presorted runs.
std::vector<std::vector<double>> SortRunInputs(size_t n) {
  std::mt19937_64 rng(1000 + n);
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<std::vector<double>> runs(8, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = rng();
    runs[0][i] = std::ldexp(static_cast<double>(r >> 11), -40) - 4096.0;
    runs[1][i] = 0.75;                                  // All equal.
    runs[2][i] = static_cast<double>(r % 3) - 1.0;      // Many ties.
    runs[3][i] = r % 3 == 0 ? 0.0 : r % 3 == 1 ? -0.0 : 1.0;
    runs[4][i] = r % 4 == 0 ? inf : r % 4 == 1 ? -inf : runs[0][i];
    runs[5][i] = static_cast<double>(r % 7) * denorm * (r % 2 ? 1 : -1);
    runs[6][i] = static_cast<double>(i);                // Sorted.
    runs[7][i] = -static_cast<double>(i);               // Reversed.
  }
  return runs;
}

TEST(SimdDifferentialTest, SortRunMatchesScalarAndStdSortAtEveryN) {
  for (size_t n = 0; n <= 512; ++n) {
    for (const std::vector<double>& in : SortRunInputs(n)) {
      std::vector<double> want(n);
      {
        LevelGuard guard(simd::Level::kScalar);
        simd::SortRun(in.data(), n, want.data());
      }
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        std::vector<double> got(n);
        simd::SortRun(in.data(), n, got.data());
        ASSERT_TRUE(SameBits(got, want))
            << simd::LevelName(level) << " n=" << n;
        std::vector<double> in_place = in;
        simd::SortRun(in_place.data(), n, in_place.data());
        ASSERT_TRUE(SameBits(in_place, want))
            << simd::LevelName(level) << " in place, n=" << n;
      }
      // std::sort's result, with only the order of +0.0 and -0.0 free.
      ASSERT_EQ(SortedBits(want), SortedBits(in)) << "n=" << n;
      std::vector<double> sorted = in;
      std::sort(sorted.begin(), sorted.end());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(want[i] + 0.0),
                  std::bit_cast<uint64_t>(sorted[i] + 0.0))
            << "n=" << n << " i=" << i;
      }
    }
  }
}

// NaN has no order, but it is neither lost to the +inf padding nor
// placed differently on another level.
TEST(SimdDifferentialTest, SortRunKeepsNanRunsAsPermutations) {
  for (size_t n : {1u, 5u, 8u, 13u, 31u, 33u, 37u, 85u, 128u, 300u}) {
    std::vector<double> in = SortRunInputs(n)[0];
    for (size_t i = 0; i < n; i += 3) {
      in[i] = std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<double> want(n);
    {
      LevelGuard guard(simd::Level::kScalar);
      simd::SortRun(in.data(), n, want.data());
    }
    EXPECT_EQ(SortedBits(want), SortedBits(in)) << "n=" << n;
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      std::vector<double> got(n);
      simd::SortRun(in.data(), n, got.data());
      EXPECT_TRUE(SameBits(got, want)) << simd::LevelName(level) << " n=" << n;
    }
  }
}

// The 0-1 principle: a comparator network that sorts every 0/1 input
// sorts every input. Exhaustive up to 16 items, sampled beyond.
TEST(SimdDifferentialTest, SortRunNetworkSortsZeroOneInputs) {
  std::mt19937_64 rng(7);
  for (simd::Level level : CompiledLevels()) {
    LevelGuard guard(level);
    for (size_t n = 1; n <= 512; n += n < 16 ? 1 : 7) {
      const size_t trials = n <= 16 ? size_t{1} << n : 200;
      std::vector<double> v(n);
      for (size_t t = 0; t < trials; ++t) {
        for (size_t i = 0; i < n; ++i) {
          v[i] = static_cast<double>(n <= 16 ? (t >> i) & 1 : rng() & 1);
        }
        simd::SortRun(v.data(), n, v.data());
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end()))
            << simd::LevelName(level) << " n=" << n << " t=" << t;
      }
    }
  }
}

TEST(SimdDifferentialTest, FoldMinMaxMatchesTheInOrderFold) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> inputs;
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u, 4099u}) {
    inputs.push_back(RandomGradientValues(n, 50 + n));
  }
  inputs.push_back(std::vector<double>(40, 0.0));
  std::vector<double> zeros(40, 0.0);
  zeros[17] = -0.0;  // The fold keeps whichever zero it met first.
  inputs.push_back(zeros);
  std::vector<double> with_nan = RandomGradientValues(64, 9);
  with_nan[33] = nan;
  inputs.push_back(with_nan);
  std::vector<double> positive = RandomGradientValues(64, 10);
  for (double& v : positive) v = std::abs(v) + 1.0;
  positive[5] = 0.0;  // A zero minimum.
  inputs.push_back(positive);
  for (const auto& values : inputs) {
    for (const double start : {0.25, -0.0, 0.0, nan}) {
      double want_min = start, want_max = start;
      for (double v : values) {
        want_min = std::min(want_min, v);
        want_max = std::max(want_max, v);
      }
      for (simd::Level level : CompiledLevels()) {
        LevelGuard guard(level);
        double lo = start, hi = start;
        simd::FoldMinMax(values.data(), values.size(), &lo, &hi);
        EXPECT_EQ(std::bit_cast<uint64_t>(lo), std::bit_cast<uint64_t>(want_min))
            << simd::LevelName(level) << " n=" << values.size();
        EXPECT_EQ(std::bit_cast<uint64_t>(hi), std::bit_cast<uint64_t>(want_max))
            << simd::LevelName(level) << " n=" << values.size();
      }
    }
  }
}

TEST(SimdDifferentialTest, SetActiveLevelFromStringVocabulary) {
  LevelGuard guard(simd::Level::kScalar);  // Restore point.
  EXPECT_TRUE(simd::SetActiveLevelFromString("off").ok());
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_TRUE(simd::SetActiveLevelFromString("scalar").ok());
  EXPECT_TRUE(simd::SetActiveLevelFromString("auto").ok());
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
  EXPECT_TRUE(simd::SetActiveLevelFromString("on").ok());
  EXPECT_EQ(simd::ActiveLevel(), simd::DetectedLevel());
  EXPECT_FALSE(simd::SetActiveLevelFromString("avx512-please").ok());
  if (simd::LevelSupported(simd::Level::kAvx2)) {
    EXPECT_TRUE(simd::SetActiveLevelFromString("avx2").ok());
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  } else {
    EXPECT_FALSE(simd::SetActiveLevelFromString("avx2").ok());
  }
}

}  // namespace
}  // namespace sketchml
