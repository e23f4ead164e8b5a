#include "sketch/kll_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/simd.h"

namespace sketchml::sketch {

namespace {
// Per-level capacity decay; 2/3 is the published KLL constant.
constexpr double kLevelDecay = 2.0 / 3.0;
constexpr size_t kMinLevelCapacity = 8;
static_assert(kMinLevelCapacity == common::simd::kSortBlock,
              "a level-0 block at the capacity floor is one sort block");
// Level-0 blocks sorted per SortBlocks8 call (a 2 KB stack buffer).
constexpr size_t kBlocksPerSort = 32;
// The largest level-0 chunk UpdateAll sorts on the stack (4 KB): level 0's
// capacity at k = 512.
constexpr size_t kMaxStackChunk = 512;

void CountUpdates(uint64_t n) {
  static const obs::Counter updates =
      obs::MetricsRegistry::Global().GetCounter("sketch/kll/updates");
  updates.Add(static_cast<double>(n));
}

void CountCompactions(uint64_t n) {
  static const obs::Counter compactions =
      obs::MetricsRegistry::Global().GetCounter("sketch/kll/compactions");
  compactions.Add(static_cast<double>(n));
}

/// Merges `count` ascending items, `stride` apart from `src`, into the
/// sorted `dst`, back to front: `dst` grows once and no item moves twice.
/// Ties keep `dst`'s items first. Each step picks its item on the bit
/// patterns, so the data never steers a branch.
void MergeSorted(const double* src, size_t count, size_t stride,
                 std::vector<double>* dst) {
  size_t kept = dst->size();
  size_t out = kept + count;
  dst->resize(out);
  double* d = dst->data();
  while (kept > 0 && count > 0) {
    const double a = d[kept - 1];
    const double b = src[(count - 1) * stride];
    const bool take_kept = a > b;
    const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(take_kept);
    d[--out] = std::bit_cast<double>((std::bit_cast<uint64_t>(a) & mask) |
                                     (std::bit_cast<uint64_t>(b) & ~mask));
    kept -= take_kept;
    count -= !take_kept;
  }
  for (; count > 0; --count) d[--out] = src[(count - 1) * stride];
}

/// Merges the ascending `values`, each of weight `weight`, into the sorted
/// `items`, back to front as MergeSorted does; ties keep `items` first.
void MergeSortedItems(const std::vector<double>& values, uint64_t weight,
                      std::vector<std::pair<double, uint64_t>>* items) {
  size_t kept = items->size();
  size_t count = values.size();
  size_t out = kept + count;
  items->resize(out);
  std::pair<double, uint64_t>* d = items->data();
  while (kept > 0 && count > 0) {
    const std::pair<double, uint64_t> a = d[kept - 1];
    const double b = values[count - 1];
    const bool take_kept = a.first > b;
    const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(take_kept);
    d[--out] = {std::bit_cast<double>((std::bit_cast<uint64_t>(a.first) &
                                       mask) |
                                      (std::bit_cast<uint64_t>(b) & ~mask)),
                (a.second & mask) | (weight & ~mask)};
    kept -= take_kept;
    count -= !take_kept;
  }
  for (; count > 0; --count) d[--out] = {values[count - 1], weight};
}

/// Inserts `value` into the ascending `sorted[0, n)` after every item it
/// does not fall below; `sorted` has room for n + 1 items. The value is
/// the largest item of the last compaction, so it usually lands near the
/// end.
void InsertSorted(double value, double* sorted, size_t n) {
  size_t at = n;
  for (; at > 0 && value < sorted[at - 1]; --at) sorted[at] = sorted[at - 1];
  sorted[at] = value;
}

/// Half a block: the items a compaction promotes out of 8.
constexpr size_t kHalfBlock = kMinLevelCapacity / 2;

/// The compaction of a floor level holding the sorted half block `kept`
/// once the sorted half block `carry` arrives: merges the two as
/// MergeSorted would (ties keep `kept` first), then writes the merged
/// items at phase, phase + 2, ... over `carry`. Each item goes straight to
/// its rank in the merge, so no step waits on the one before.
void MergeAndPromote(const double* kept, size_t phase, double* carry) {
  double merged[kMinLevelCapacity] = {};
  for (size_t i = 0; i < kHalfBlock; ++i) {
    size_t kept_rank = i;
    size_t carry_rank = i;
    for (size_t j = 0; j < kHalfBlock; ++j) {
      kept_rank += carry[j] < kept[i];
      carry_rank += kept[j] <= carry[i];
    }
    merged[kept_rank] = kept[i];
    merged[carry_rank] = carry[i];
  }
  for (size_t i = 0; i < kHalfBlock; ++i) carry[i] = merged[phase + 2 * i];
}
}  // namespace

KllSketch::KllSketch(int k, uint64_t seed) : k_(k), rng_(seed) {
  SKETCHML_CHECK_GE(k, kMinK);
  SKETCHML_CHECK_LE(k, kMaxK);
  levels_.emplace_back();
  RefreshCapacities();
  levels_[0].reserve(LevelCapacity(0));
}

void KllSketch::RefreshCapacities() {
  // The highest levels get capacity k; deeper (younger) levels decay
  // geometrically. Level 0 is youngest, so decay by the distance from the
  // top level.
  capacities_.resize(levels_.size());
  for (size_t level = 0; level < levels_.size(); ++level) {
    const int depth = static_cast<int>(levels_.size()) - 1 -
                      static_cast<int>(level);
    const double cap = static_cast<double>(k_) * std::pow(kLevelDecay, depth);
    capacities_[level] =
        std::max<size_t>(kMinLevelCapacity, static_cast<size_t>(cap));
  }
  rescan_ = true;
}

void KllSketch::Update(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  levels_[0].push_back(value);
  if (levels_[0].size() >= LevelCapacity(0)) CompactFullLevels(0);
  PublishCounts(1);
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::UpdateAll(std::span<const double> values) {
  const size_t n = values.size();
  if (n == 0) return;
  // The min/max fold of the per-item loop, in input order.
  size_t i = 0;
  if (count_ == 0) min_ = max_ = values[i++];
  common::simd::FoldMinMax(values.data() + i, n - i, &min_, &max_);
  count_ += n;
  for (size_t next = 0; next < n;) {
    std::vector<double>& level0 = levels_[0];
    const size_t capacity = LevelCapacity(0);
    const size_t blocks =
        level0.empty() && capacity == kMinLevelCapacity
            ? std::min((n - next) / kMinLevelCapacity, kBlocksPerSort)
            : 0;
    if (blocks > 0) {
      double sorted[kBlocksPerSort * kMinLevelCapacity];
      common::simd::SortBlocks8(values.data() + next, blocks, sorted);
      for (size_t b = 0; b < blocks; ++b) {
        CompactBlock(sorted + b * kMinLevelCapacity);
      }
      next += blocks * kMinLevelCapacity;
      continue;
    }
    // Below the floor: the input items that fill level 0 are sorted
    // straight into a stack buffer, beside the one item an odd-size
    // compaction may have left behind.
    const size_t held = level0.size();
    if (held <= 1 && capacity <= kMaxStackChunk &&
        n - next >= capacity - held) {
      double sorted[kMaxStackChunk];
      const size_t take = capacity - held;
      common::simd::SortRun(values.data() + next, take, sorted);
      if (held == 1) InsertSorted(level0[0], sorted, take);
      next += take;
      const bool full = std::exchange(rescan_, false);
      PromoteHalf(sorted, capacity, 0);
      Cascade(1, full);
      continue;
    }
    // Fill level 0 up to capacity, then run the cascade the per-item loop
    // runs on the item that fills it. A level 0 already past capacity (a
    // capacity refresh can shrink it) takes one item, as Update would.
    const size_t room =
        level0.size() < capacity ? capacity - level0.size() : 1;
    const size_t take = std::min(room, n - next);
    level0.insert(level0.end(), values.begin() + next,
                  values.begin() + next + take);
    next += take;
    if (level0.size() >= capacity) CompactFullLevels(0);
  }
  PublishCounts(n);
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::CompactFullLevels(int first) {
  const bool full = rescan_;
  if (first == 0) rescan_ = false;
  Cascade(first, full);
}

void KllSketch::Cascade(int level, bool full) {
  // A compaction may add a level, so the bound is re-read each step.
  for (; level < static_cast<int>(levels_.size()); ++level) {
    if (levels_[level].size() >= LevelCapacity(level)) {
      Compact(level);
    } else if (!full) {
      return;
    }
  }
}

void KllSketch::PublishCounts(uint64_t updates) {
  if (instrumented_ && obs::MetricsEnabled()) {
    if (updates > 0) CountUpdates(updates);
    if (unpublished_compactions_ > 0) {
      CountCompactions(unpublished_compactions_);
    }
  }
  unpublished_compactions_ = 0;
}

bool KllSketch::InvariantsHold() const {
  uint64_t weight = 0;
  for (size_t level = 0; level < levels_.size(); ++level) {
    weight += static_cast<uint64_t>(levels_[level].size()) << level;
  }
  if (weight != count_) return false;  // Compaction lost or forged items.
  for (size_t level = 1; level < levels_.size(); ++level) {
    if (!std::is_sorted(levels_[level].begin(), levels_[level].end())) {
      return false;
    }
  }
  return count_ == 0 || min_ <= max_;
}

void KllSketch::Compact(int level) {
  std::vector<double>& buf = levels_[level];
  if (buf.size() < 2) return;
  if (level == 0) common::simd::SortRun(buf.data(), buf.size(), buf.data());
  PromoteHalf(buf.data(), buf.size(), level);
}

void KllSketch::PromoteHalf(const double* sorted, size_t n, int level) {
  ++unpublished_compactions_;
  // Grow the level list *before* taking references: emplace_back can
  // reallocate and would otherwise dangle them. `sorted` may be this
  // level's own buffer, which the move leaves in place.
  if (level + 1 >= static_cast<int>(levels_.size())) {
    levels_.emplace_back().reserve(2 * static_cast<size_t>(k_));
    RefreshCapacities();
  }
  // Random phase: promote either the even- or odd-indexed half. The low
  // bit is the draw NextBounded(2) makes: its rejection threshold,
  // -2 % 2, is 0, so it takes the first word and reduces it mod 2.
  const size_t phase = rng_.NextUint64() & 1;
  // If there is an odd number of items, the largest stays behind at this
  // level so total weight is conserved. Shrink in place rather than
  // swapping in a fresh vector: this runs every few inserts at level 0,
  // and keeping the buffer's capacity keeps the hot path allocation-free.
  const size_t even = n & ~size_t{1};
  MergeSorted(sorted + phase, even / 2, 2, &levels_[level + 1]);
  std::vector<double>& buf = levels_[level];
  if (even < n) {
    const double largest = sorted[even];
    buf.resize(1);
    buf[0] = largest;
  } else {
    buf.clear();
  }
}

void KllSketch::CompactBlock(const double* sorted) {
  // CompactFullLevels(0) with level 0 holding exactly this block.
  const bool full = std::exchange(rescan_, false);
  ++unpublished_compactions_;
  if (levels_.size() == 1) {
    levels_.emplace_back().reserve(2 * static_cast<size_t>(k_));
    RefreshCapacities();
  }
  double carry[kHalfBlock];
  const size_t phase = rng_.NextUint64() & 1;
  for (size_t i = 0; i < kHalfBlock; ++i) carry[i] = sorted[phase + 2 * i];
  // A level at the capacity floor that holds half a block fills with the
  // carry and compacts at once: merge and promote in one step, without
  // storing the merged level. The top level goes through Compact, which
  // adds the level above it.
  int level = 1;
  while (level + 1 < static_cast<int>(levels_.size()) &&
         LevelCapacity(level) == kMinLevelCapacity &&
         levels_[level].size() == kHalfBlock) {
    ++unpublished_compactions_;
    MergeAndPromote(levels_[level].data(), rng_.NextUint64() & 1, carry);
    levels_[level].clear();
    ++level;
  }
  // Most blocks end at an empty level, which takes the carry as it is
  // (about 5% of the build, against MergeSorted's resize and copy).
  std::vector<double>& dst = levels_[level];
  if (dst.empty()) {
    dst.assign(carry, carry + kHalfBlock);
  } else {
    MergeSorted(carry, kHalfBlock, 1, &dst);
  }
  Cascade(level, full);
}

std::vector<std::pair<double, uint64_t>> KllSketch::SortedItems() const {
  // A sorted copy of level 0, then every sorted level above it merged in:
  // the order of sorting (value, weight) pairs, ties by ascending level.
  std::vector<double> level0(levels_[0].size());
  common::simd::SortRun(levels_[0].data(), level0.size(), level0.data());
  std::vector<std::pair<double, uint64_t>> items;
  items.reserve(NumRetained());
  MergeSortedItems(level0, 1, &items);
  for (size_t level = 1; level < levels_.size(); ++level) {
    MergeSortedItems(levels_[level], uint64_t{1} << level, &items);
  }
  return items;
}

double KllSketch::Quantile(double q) const {
  SKETCHML_CHECK_GT(count_, 0u);
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  const auto items = SortedItems();
  uint64_t total_weight = 0;
  for (const auto& [v, w] : items) total_weight += w;
  const double target = q * static_cast<double>(total_weight);
  uint64_t cumulative = 0;
  for (const auto& [v, w] : items) {
    cumulative += w;
    if (static_cast<double>(cumulative) >= target) return v;
  }
  return max_;
}

std::vector<double> KllSketch::EqualDepthSplits(int num_splits) const {
  SKETCHML_CHECK_GT(num_splits, 0);
  SKETCHML_CHECK_GT(count_, 0u);
  // One merge of the levels answers every rank in one forward sweep. Must
  // stay bit-identical to a Quantile call per split: Quantile(q) returns
  // the first item whose cumulative weight reaches q * total, and the
  // interior targets only grow with i, so the sweep never steps back; the
  // interior q values are in (0, 1) so the min/max shortcuts never fire.
  const auto items = SortedItems();
  uint64_t total = 0;
  for (const auto& [v, w] : items) total += w;
  const double total_weight = static_cast<double>(total);

  std::vector<double> splits;
  splits.reserve(num_splits + 1);
  splits.push_back(Min());
  size_t at = 0;
  uint64_t cumulative = items[0].second;
  for (int i = 1; i < num_splits; ++i) {
    const double q = static_cast<double>(i) / num_splits;
    const double target = q * total_weight;
    while (at < items.size() && static_cast<double>(cumulative) < target) {
      if (++at < items.size()) cumulative += items[at].second;
    }
    double v = at == items.size() ? max_ : items[at].first;
    // Quantile estimates can jitter below the running maximum of previous
    // splits; enforce monotonicity so bucket thresholds are well ordered.
    if (v < splits.back()) v = splits.back();
    splits.push_back(v);
  }
  double hi = Max();
  if (hi < splits.back()) hi = splits.back();
  splits.push_back(hi);
  return splits;
}

double KllSketch::Min() const {
  SKETCHML_CHECK_GT(count_, 0u);
  return min_;
}

double KllSketch::Max() const {
  SKETCHML_CHECK_GT(count_, 0u);
  return max_;
}

void KllSketch::Merge(const KllSketch& other) {
  if (other.count_ == 0) return;
  const bool instrumented = instrumented_ && obs::MetricsEnabled();
  const uint64_t start_ns = instrumented ? obs::NowNs() : 0;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    RefreshCapacities();
  }
  levels_[0].insert(levels_[0].end(), other.levels_[0].begin(),
                    other.levels_[0].end());
  for (size_t level = 1; level < other.levels_.size(); ++level) {
    const auto& src = other.levels_[level];
    MergeSorted(src.data(), src.size(), 1, &levels_[level]);
  }
  // Restore capacity invariants: any level may have filled.
  rescan_ = true;
  CompactFullLevels(0);
  PublishCounts(0);
  if (instrumented) {
    auto& registry = obs::MetricsRegistry::Global();
    static const obs::Counter merges = registry.GetCounter("sketch/kll/merges");
    static const obs::Histogram merge_ns =
        registry.GetHistogram("sketch/kll/merge_ns");
    merges.Increment();
    merge_ns.Record(static_cast<double>(obs::NowNs() - start_ns));
  }
  SKETCHML_DCHECK(InvariantsHold());
}

size_t KllSketch::NumRetained() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

void KllSketch::UpdateWeighted(double value, uint64_t weight) {
  SKETCHML_CHECK_GT(weight, 0u);
  SKETCHML_CHECK_EQ(weight & (weight - 1), 0u);  // Power of two.
  const int target = std::countr_zero(weight);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  if (target >= static_cast<int>(levels_.size())) {
    levels_.resize(target + 1);
    RefreshCapacities();
  }
  auto& dst = levels_[target];
  dst.insert(target == 0 ? dst.end()
                         : std::upper_bound(dst.begin(), dst.end(), value),
             value);
  if (dst.size() >= LevelCapacity(target)) CompactFullLevels(target);
  PublishCounts(0);
  SKETCHML_DCHECK(InvariantsHold());
}

namespace {
constexpr uint8_t kKllWireVersion = 1;
}  // namespace

size_t KllSketch::SerializedSize() const {
  size_t size = 1 + 4 + 8 + 8 + 8;  // version, k, count, min, max.
  size += common::ByteWriter::VarintSize(levels_.size());
  for (const auto& level : levels_) {
    size += common::ByteWriter::VarintSize(level.size());
    size += level.size() * sizeof(double);
  }
  return size;
}

void KllSketch::Serialize(common::ByteWriter* writer) const {
  writer->WriteU8(kKllWireVersion);
  writer->WriteU32(static_cast<uint32_t>(k_));
  writer->WriteU64(count_);
  writer->WriteDouble(min_);
  writer->WriteDouble(max_);
  writer->WriteVarint(levels_.size());
  for (const auto& level : levels_) {
    writer->WriteVarint(level.size());
    for (double v : level) writer->WriteDouble(v);
  }
}

common::Status KllSketch::Deserialize(common::ByteReader* reader,
                                      KllSketch* out, uint64_t seed) {
  uint8_t version = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadU8(&version));
  if (version != kKllWireVersion) {
    return common::Status::CorruptedData("unknown KLL wire version");
  }
  uint32_t k = 0;
  uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadU32(&k));
  SKETCHML_RETURN_IF_ERROR(reader->ReadU64(&count));
  SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&min));
  SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&max));
  if (k < static_cast<uint32_t>(kMinK) || k > static_cast<uint32_t>(kMaxK)) {
    return common::Status::CorruptedData("KLL k out of range");
  }
  uint64_t num_levels = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&num_levels));
  if (num_levels == 0 || num_levels > 64) {
    return common::Status::CorruptedData("KLL level count out of range");
  }
  KllSketch sketch(static_cast<int>(k), seed);
  sketch.levels_.resize(num_levels);
  uint64_t weight = 0;
  for (uint64_t level = 0; level < num_levels; ++level) {
    uint64_t n = 0;
    SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&n));
    // Checked before allocating: the items must be on the wire, and their
    // weight must fit the count still unclaimed, so the sum cannot wrap.
    if (n > reader->remaining() / sizeof(double) ||
        n > (count - weight) >> level) {
      return common::Status::CorruptedData("KLL level too large");
    }
    auto& buf = sketch.levels_[level];
    buf.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&buf[i]));
      // NaN has no order, so no level could hold it sorted.
      if (std::isnan(buf[i])) {
        return common::Status::CorruptedData("KLL item is NaN");
      }
    }
    // Blobs written before levels >= 1 were kept sorted hold
    // concatenated runs there.
    if (level > 0 && !std::is_sorted(buf.begin(), buf.end())) {
      common::simd::SortRun(buf.data(), buf.size(), buf.data());
    }
    weight += n << level;
  }
  if (weight != count) {
    return common::Status::CorruptedData("KLL weight/count mismatch");
  }
  sketch.count_ = count;
  sketch.min_ = min;
  sketch.max_ = max;
  sketch.RefreshCapacities();
  if (!sketch.InvariantsHold()) {
    return common::Status::CorruptedData("KLL invariants violated");
  }
  *out = std::move(sketch);
  return common::Status::Ok();
}

void KllSketch::ExpandRange(double lo, double hi) {
  SKETCHML_CHECK_GT(count_, 0u);
  SKETCHML_CHECK_LE(lo, hi);
  min_ = std::min(min_, lo);
  max_ = std::max(max_, hi);
}

double KllSketch::NormalizedRankError(int k) {
  return 2.296 / std::pow(static_cast<double>(k), 0.9);
}

}  // namespace sketchml::sketch
