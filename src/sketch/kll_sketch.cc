#include "sketch/kll_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/obs.h"

namespace sketchml::sketch {

namespace {
// Per-level capacity decay; 2/3 is the published KLL constant.
constexpr double kLevelDecay = 2.0 / 3.0;
constexpr size_t kMinLevelCapacity = 8;

void CountUpdates(uint64_t n) {
  static const obs::Counter updates =
      obs::MetricsRegistry::Global().GetCounter("sketch/kll/updates");
  updates.Add(static_cast<double>(n));
}

/// Merges `count` ascending items, `stride` apart from `src`, into the
/// sorted `dst`, back to front: `dst` grows once and no item moves twice.
/// Ties keep `dst`'s items first.
void MergeSorted(const double* src, size_t count, size_t stride,
                 std::vector<double>* dst) {
  size_t kept = dst->size();
  size_t out = kept + count;
  dst->resize(out);
  double* d = dst->data();
  while (count > 0) {
    const double item = src[(count - 1) * stride];
    if (kept > 0 && d[kept - 1] > item) {
      d[--out] = d[--kept];
    } else {
      d[--out] = item;
      --count;
    }
  }
}
}  // namespace

KllSketch::KllSketch(int k, uint64_t seed) : k_(k), rng_(seed) {
  SKETCHML_CHECK_GE(k, 8);
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
}

void KllSketch::Update(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  if (instrumented_ && obs::MetricsEnabled()) CountUpdates(1);
  levels_[0].push_back(value);
  if (levels_[0].size() >= LevelCapacity(0)) CompactFullLevels(0);
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::UpdateAll(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n == 0) return;
  // The min/max fold of the per-item loop, in input order.
  size_t i = 0;
  if (count_ == 0) min_ = max_ = values[i++];
  for (; i < n; ++i) {
    min_ = std::min(min_, values[i]);
    max_ = std::max(max_, values[i]);
  }
  count_ += n;
  if (instrumented_ && obs::MetricsEnabled()) CountUpdates(n);
  // Fill level 0 up to capacity, then run the cascade the per-item loop
  // runs on the item that fills it. A level 0 already past capacity (a
  // capacity refresh can shrink it) takes one item, as Update would.
  for (size_t next = 0; next < n;) {
    std::vector<double>& level0 = levels_[0];
    const size_t capacity = LevelCapacity(0);
    const size_t room =
        level0.size() < capacity ? capacity - level0.size() : 1;
    const size_t take = std::min(room, n - next);
    level0.insert(level0.end(), values.begin() + next,
                  values.begin() + next + take);
    next += take;
    if (level0.size() >= capacity) CompactFullLevels(0);
  }
  SKETCHML_DCHECK(InvariantsHold());
}

void KllSketch::CompactFullLevels(int first) {
  // Cascades upward while levels overflow; a compaction may add a level.
  for (int level = first; level < static_cast<int>(levels_.size()); ++level) {
    if (levels_[level].size() >= LevelCapacity(level)) Compact(level);
  }
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
  if (levels_[level].size() < 2) return;
  if (instrumented_ && obs::MetricsEnabled()) {
    static const obs::Counter compactions =
        obs::MetricsRegistry::Global().GetCounter("sketch/kll/compactions");
    compactions.Increment();
  }
  // Grow the level list *before* taking references: emplace_back can
  // reallocate and would otherwise dangle them.
  if (level + 1 >= static_cast<int>(levels_.size())) {
    levels_.emplace_back();
    RefreshCapacities();
  }
  auto& buf = levels_[level];
  if (level == 0) std::sort(buf.begin(), buf.end());
  // Random phase: promote either the even- or odd-indexed half.
  const size_t phase = rng_.NextBounded(2);
  // If the buffer has odd size, its largest item stays behind at this
  // level so total weight is conserved. Shrink in place rather than
  // swapping in a fresh vector: this runs every few inserts at level 0,
  // and keeping the buffer's capacity keeps the hot path allocation-free.
  size_t n = buf.size();
  const bool odd = (n % 2 == 1);
  if (odd) --n;
  MergeSorted(buf.data() + phase, n / 2, 2, &levels_[level + 1]);
  if (odd) buf[0] = buf[n];
  buf.resize(odd ? 1 : 0);
}

std::vector<std::pair<double, uint64_t>> KllSketch::SortedItems() const {
  std::vector<std::pair<double, uint64_t>> items;
  items.reserve(NumRetained());
  for (size_t level = 0; level < levels_.size(); ++level) {
    const uint64_t weight = 1ULL << level;
    for (double v : levels_[level]) items.emplace_back(v, weight);
  }
  std::sort(items.begin(), items.end());
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
  // One gather-and-sort answers every rank; each split is then a binary
  // search over the prefix weights. Must stay bit-identical to a Quantile
  // call per split: Quantile(q) returns the first item whose cumulative
  // weight reaches q * total, which is exactly the lower_bound below, and
  // the interior q values are in (0, 1) so the min/max shortcuts never
  // fire.
  const auto items = SortedItems();
  std::vector<double> cumulative;
  cumulative.reserve(items.size());
  uint64_t running = 0;
  for (const auto& [v, w] : items) {
    running += w;
    cumulative.push_back(static_cast<double>(running));
  }
  const double total_weight = cumulative.empty() ? 0.0 : cumulative.back();

  std::vector<double> splits;
  splits.reserve(num_splits + 1);
  splits.push_back(Min());
  for (int i = 1; i < num_splits; ++i) {
    const double q = static_cast<double>(i) / num_splits;
    const double target = q * total_weight;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), target);
    double v = it == cumulative.end()
                   ? max_
                   : items[static_cast<size_t>(it - cumulative.begin())].first;
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
  // Restore capacity invariants.
  CompactFullLevels(0);
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
  if (k < 8) return common::Status::CorruptedData("KLL k below minimum");
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
    if (n > count) return common::Status::CorruptedData("KLL level too large");
    auto& buf = sketch.levels_[level];
    buf.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      SKETCHML_RETURN_IF_ERROR(reader->ReadDouble(&buf[i]));
      // NaN has no order: sorting it is undefined.
      if (std::isnan(buf[i])) {
        return common::Status::CorruptedData("KLL item is NaN");
      }
    }
    // Blobs written before levels >= 1 were kept sorted hold
    // concatenated runs there.
    if (level > 0) std::sort(buf.begin(), buf.end());
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
