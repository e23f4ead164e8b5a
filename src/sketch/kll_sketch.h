#ifndef SKETCHML_SKETCH_KLL_SKETCH_H_
#define SKETCHML_SKETCH_KLL_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "common/status.h"

namespace sketchml::sketch {

/// Merging quantile sketch in the KLL family — the from-scratch stand-in
/// for the Yahoo DataSketches quantile sketch the paper uses (§3.2).
///
/// A quantile sketch summarizes one pass over a stream of doubles in a
/// small structure and answers rank queries `q ∈ [0, 1]` (§2.3):
/// `Quantile(0.5)` estimates the median. SketchML uses it to place
/// gradient values into equal-population buckets.
///
/// Items are buffered in levels; when a level fills it is sorted and
/// compacted: every other item (random phase) is promoted to the next
/// level with doubled weight. With parameter `k = 256` the sketch answers
/// quantile queries with ~1 % rank error at better-than-99 % confidence,
/// matching the "99 % correctness when m = 256" claim quoted in §2.3.
///
/// Levels >= 1 stay sorted: a compaction sorts only level 0, with the
/// common::simd SortRun network, and merges its promoted half into the
/// next level in place. The summary is the one a sort at every compaction
/// would build, except that +0.0 and -0.0 compare equal, so their order
/// within a level (and hence which of the two a query returns) may differ
/// from std::sort's; it is the same on every SIMD level. NaN has no order
/// and is not supported; `Deserialize` rejects it.
///
/// Three rules keep a long `UpdateAll` cheap without changing that
/// summary:
///  - *Below the floor.* Level 0's capacity only shrinks as levels are
///    added, down to a floor of 8. Above the floor, a compaction of level
///    0 that holds at most one item (the largest of an odd-size
///    compaction before it) sorts the input items that fill it straight
///    from the input into a stack buffer with SortRun, inserts the held
///    item, and merges the promoted half straight into level 1, so level
///    0 is never filled and copied.
///  - *Batched blocks.* Once level 0 is at the floor and empty, every
///    later level-0 compaction sorts the next 8 input items, so UpdateAll
///    sorts a run of those blocks in one common::simd SortBlocks8 call and
///    merges each block's promoted half straight into level 1.
///  - *Cascade.* After a level fills, the compaction cascade stops at the
///    first level below capacity. Only a capacity refresh (a level was
///    added), `Merge` or `Deserialize` can leave some other level over
///    capacity; each marks a pending rescan, and the next cascade from
///    level 0 visits every level, as the sort-every-compaction build did
///    each time.
///
/// Supports `Merge`, which the distributed driver uses to combine
/// per-worker sketches.
class KllSketch {
 public:
  /// Bounds on `k`. The tree uses at most 512; the upper bound keeps a
  /// sketch's buffers small and lets Deserialize reject a corrupt k
  /// before it allocates.
  static constexpr int kMinK = 8;
  static constexpr int kMaxK = 1 << 16;

  /// `k` controls accuracy/space (level-0 capacity), in [kMinK, kMaxK].
  /// `seed` drives the random compaction phase; fixed seed =>
  /// deterministic sketch.
  explicit KllSketch(int k = 256, uint64_t seed = 1);

  /// Inserts one item.
  void Update(double value);

  /// Inserts every element of `values`, in order, and leaves exactly the
  /// state the per-item `Update` loop would, with the same compaction and
  /// update counts.
  void UpdateAll(std::span<const double> values);

  /// Number of items inserted so far.
  uint64_t Count() const { return count_; }

  /// Returns an estimate of the item at rank `q * Count()`. `q` is clamped
  /// to [0, 1]. Undefined when the sketch is empty (checked).
  double Quantile(double q) const;

  /// Exact minimum and maximum of the stream (tracked losslessly, as
  /// DataSketches does). Undefined when the sketch is empty (checked).
  double Min() const;
  double Max() const;

  /// The `num_splits + 1` equal-depth split points of quantile-bucket
  /// quantification (§3.2 step 1; `num_splits` is the paper's `q`):
  /// Min(), then each Quantile(i / num_splits) for 0 < i < num_splits
  /// raised to the previous split if it falls below it, then Max()
  /// raised the same way. The result is non-decreasing. Answers every
  /// rank in one forward sweep over the merged levels (SortedItems),
  /// ~num_splits times cheaper than a Quantile call per split, with
  /// bit-identical results (pinned by tests/kll_sketch_test.cc); this sits
  /// on the encode hot path via QuantileBucketQuantizer::Build.
  std::vector<double> EqualDepthSplits(int num_splits) const;

  /// Merges `other` into this sketch. Equivalent to having updated this
  /// sketch with other's entire stream.
  void Merge(const KllSketch& other);

  /// Inserts `value` with weight `weight` directly into level log2(weight).
  /// `weight` must be a power of two — the only weights a KLL compactor
  /// produces — so replaying another sketch's retained items through this
  /// call reproduces an equivalent summary. Used by the telemetry layer's
  /// canonical rebuild (obs::SketchHistogramRegistry): gathering retained
  /// items from per-thread shards, sorting, and re-inserting them into a
  /// fixed-seed sketch yields a result independent of how the stream was
  /// partitioned across threads.
  void UpdateWeighted(double value, uint64_t weight);

  /// All retained (value, weight) pairs sorted by (value, weight). The
  /// multiset these represent is rank-equivalent to the full stream within
  /// the sketch's error bound.
  std::vector<std::pair<double, uint64_t>> RetainedItems() const {
    return SortedItems();
  }

  /// Wire format: version byte, k, count, min, max, then per-level item
  /// arrays. Captures the full summary state (not the RNG), so a
  /// deserialized sketch answers identical queries and merges losslessly;
  /// future compactions of the copy draw from `seed` passed to Deserialize.
  size_t SerializedSize() const;
  void Serialize(common::ByteWriter* writer) const;
  static common::Status Deserialize(common::ByteReader* reader, KllSketch* out,
                                    uint64_t seed = 1);

  /// Widens the exact [Min(), Max()] range to cover [lo, hi]. The sketch
  /// tracks extremes separately from the retained items (compaction may
  /// drop the actual minimum/maximum), so a canonical rebuild from
  /// RetainedItems() must re-apply the source sketch's range to keep
  /// Min()/Max() exact. Only valid on a non-empty sketch.
  void ExpandRange(double lo, double hi);

  /// Normalized rank-error bound ε for parameter `k`: quantile estimates
  /// land within ±ε of the true rank with high confidence. Empirical KLL
  /// fit (DataSketches-style 2.296 / k^0.9); ~1.5 % at the default k=256,
  /// consistent with the ~1 % typical error quoted in the class comment.
  static double NormalizedRankError(int k);
  double NormalizedRankError() const { return NormalizedRankError(k_); }

  /// Sketches owned by the telemetry layer itself must not feed the
  /// `sketch/kll/*` self-metrics: snapshot-time rebuilds and merges would
  /// otherwise inflate those counters by an amount that depends on how
  /// often the sampler fires, breaking run-to-run determinism of metric
  /// dumps. Default on; the obs::SketchHistogramRegistry turns it off for
  /// its internal sketches.
  void SetInstrumented(bool instrumented) { instrumented_ = instrumented; }

  int k() const { return k_; }

  /// Total retained items across all levels (space footprint).
  size_t NumRetained() const;

  /// Compactor weight conservation: Σ_level |level| · 2^level == Count()
  /// (a compaction promotes exactly half a level's items with doubled
  /// weight, so total weight is invariant), levels >= 1 sorted, plus
  /// Min() <= Max() on non-empty sketches. Exercised via SKETCHML_DCHECK
  /// after update/merge in checked builds.
  bool InvariantsHold() const;

 private:
  /// Capacity of `level` (geometrically decreasing with depth below top).
  /// Served from `capacities_`: every capacity depends on the level count,
  /// so they are recomputed only when a level is added (Update sits on the
  /// encode hot path and must not pay a std::pow per item).
  size_t LevelCapacity(int level) const { return capacities_[level]; }

  /// Recomputes `capacities_` for the current level count. Capacities
  /// shrink, so this marks a pending rescan.
  void RefreshCapacities();

  /// Compacts `level` (sorting it first if it is level 0), merging half
  /// its items into the next level.
  void Compact(int level);

  /// The compaction of `level` once it holds the `n` ascending items of
  /// `sorted` (which may be the level's own buffer): merges a random-phase
  /// half of them into the next level, adding it if needed, and leaves
  /// the largest item behind when `n` is odd. The cascade above is the
  /// caller's.
  void PromoteHalf(const double* sorted, size_t n, int level);

  /// Level 0's compaction of one sorted 8-item block, then the rest of
  /// the cascade `CompactFullLevels(0)` runs after it.
  void CompactBlock(const double* sorted);

  /// Compacts every level from `first` up that is at capacity: all of
  /// them while a rescan is pending (a scan from level 0 clears it),
  /// otherwise up to the first level below capacity.
  void CompactFullLevels(int first);

  /// Compacts levels from `level` up while they are at capacity; with
  /// `full`, visits every level instead of stopping below capacity.
  void Cascade(int level, bool full);

  /// Adds the compactions since the last call, and `updates`, to the
  /// `sketch/kll/*` counters.
  void PublishCounts(uint64_t updates);

  /// All retained (value, weight) pairs sorted by (value, weight): a
  /// sorted copy of level 0, then each sorted level above merged in, ties
  /// keeping the lower level first.
  std::vector<std::pair<double, uint64_t>> SortedItems() const;

  int k_;
  bool instrumented_ = true;
  // Some level other than the one a cascade starts from may be over
  // capacity, so the next cascade must visit every level.
  bool rescan_ = true;
  uint64_t count_ = 0;
  uint64_t unpublished_compactions_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  common::Rng rng_;
  // levels_[i] holds items of weight 2^i; level 0 is unsorted, the others
  // sorted. A level added by a compaction reserves 2k items, more than a
  // level holds between cascades, so a build never reallocates it.
  std::vector<std::vector<double>> levels_;
  std::vector<size_t> capacities_;  // capacities_[i] = capacity of level i.
};

}  // namespace sketchml::sketch

#endif  // SKETCHML_SKETCH_KLL_SKETCH_H_
