#include "sketch/grouped_min_max_sketch.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/logging.h"

namespace sketchml::sketch {

GroupedMinMaxSketch::GroupedMinMaxSketch(int num_buckets, int num_groups,
                                         int rows, int total_cols,
                                         uint64_t seed)
    : num_buckets_(num_buckets), num_groups_(num_groups) {
  SKETCHML_CHECK_GT(num_buckets, 0);
  SKETCHML_CHECK_GT(num_groups, 0);
  SKETCHML_CHECK_LE(num_groups, num_buckets);
  group_width_ = static_cast<int>(
      common::CeilDiv(static_cast<uint64_t>(num_buckets),
                      static_cast<uint64_t>(num_groups)));
  // Local (within-group) indexes must fit one byte (<= 256 buckets/group).
  SKETCHML_CHECK_LE(group_width_, 256);
  const int cols_per_group = std::max(
      1, static_cast<int>(common::CeilDiv(
             static_cast<uint64_t>(std::max(total_cols, 1)),
             static_cast<uint64_t>(num_groups))));
  groups_.reserve(num_groups);
  for (int g = 0; g < num_groups; ++g) {
    groups_.emplace_back(rows, cols_per_group,
                         seed + static_cast<uint64_t>(g) * 0x9E3779B9ULL);
  }
}

void GroupedMinMaxSketch::Insert(uint64_t key, int bucket) {
  SKETCHML_CHECK_GE(bucket, 0);
  SKETCHML_CHECK_LT(bucket, num_buckets_);
  const int group = GroupOf(bucket);
  const int local = bucket - group * group_width_;
  // The within-group index must fit the group's byte-sized bins.
  SKETCHML_DCHECK_GE(local, 0);
  SKETCHML_DCHECK_LT(local, group_width_);
  groups_[group].Insert(key, static_cast<uint8_t>(local));
}

int GroupedMinMaxSketch::Query(uint64_t key, int group) const {
  SKETCHML_CHECK_GE(group, 0);
  SKETCHML_CHECK_LT(group, num_groups_);
  int local = groups_[group].Query(key);
  // kEmpty either means "every bin only ever held the maximal index" (only
  // possible when the group spans a full byte) or an uninserted key; both
  // clamp to the group's top index.
  if (local >= group_width_) local = group_width_ - 1;
  const int bucket = std::min(group * group_width_ + local, num_buckets_ - 1);
  // Group-bound guarantee (§3.3): the decoded index stays inside the
  // queried group's bucket range (clamped to the global top index for a
  // degenerate trailing group), so collision error is < group_width.
  // The clamp matters: decode iterates wire-declared groups, and a
  // corrupted message may address a group no honest bucket maps to.
  SKETCHML_DCHECK_GE(bucket, std::min(group * group_width_, num_buckets_ - 1));
  SKETCHML_DCHECK_LT(bucket,
                     std::min((group + 1) * group_width_, num_buckets_));
  return bucket;
}

void GroupedMinMaxSketch::InsertGroupBatch(
    int group, std::span<const uint64_t> keys,
    std::span<const uint8_t> locals, std::vector<uint32_t>* idx_scratch) {
  SKETCHML_CHECK_GE(group, 0);
  SKETCHML_CHECK_LT(group, num_groups_);
  if (keys.empty()) return;
#if SKETCHML_DCHECK_ENABLED
  // Same contract per pair as Insert: the caller-computed local index
  // must address a bucket of this group (and fit the byte-sized bins).
  for (size_t i = 0; i < locals.size(); ++i) {
    SKETCHML_DCHECK_LT(static_cast<int>(locals[i]), group_width_);
    SKETCHML_DCHECK_LT(group * group_width_ + static_cast<int>(locals[i]),
                       num_buckets_);
  }
#endif
  groups_[group].InsertBatch(keys, locals, idx_scratch);
}

void GroupedMinMaxSketch::QueryGroupBatch(
    int group, std::span<const uint64_t> keys, int* buckets_out,
    std::vector<uint32_t>* idx_scratch,
    std::vector<uint8_t>* local_scratch) const {
  SKETCHML_CHECK_GE(group, 0);
  SKETCHML_CHECK_LT(group, num_groups_);
  if (keys.empty()) return;
  local_scratch->resize(keys.size());
  groups_[group].QueryBatch(keys, local_scratch->data(), idx_scratch);
  for (size_t i = 0; i < keys.size(); ++i) {
    int local = (*local_scratch)[i];
    if (local >= group_width_) local = group_width_ - 1;
    const int bucket =
        std::min(group * group_width_ + local, num_buckets_ - 1);
    // Same group-bound guarantee the per-element Query asserts (§3.3).
    SKETCHML_DCHECK_GE(bucket,
                       std::min(group * group_width_, num_buckets_ - 1));
    SKETCHML_DCHECK_LT(bucket,
                       std::min((group + 1) * group_width_, num_buckets_));
    buckets_out[i] = bucket;
  }
}

size_t GroupedMinMaxSketch::SizeBytes() const {
  size_t total = 0;
  for (const auto& g : groups_) total += g.SizeBytes();
  return total;
}

size_t GroupedMinMaxSketch::SerializedSize() const {
  size_t total = static_cast<size_t>(
      common::VarintSize(static_cast<uint64_t>(num_buckets_)) +
      common::VarintSize(static_cast<uint64_t>(num_groups_)));
  for (const auto& g : groups_) total += g.SerializedSize();
  return total;
}

void GroupedMinMaxSketch::Serialize(common::ByteWriter* writer) const {
  writer->WriteVarint(static_cast<uint64_t>(num_buckets_));
  writer->WriteVarint(static_cast<uint64_t>(num_groups_));
  for (const auto& g : groups_) g.Serialize(writer);
}

common::Status GroupedMinMaxSketch::Deserialize(common::ByteReader* reader,
                                                GroupedMinMaxSketch* out) {
  uint64_t num_buckets = 0, num_groups = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&num_buckets));
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&num_groups));
  // Each group's sketch takes at least 11 bytes (rows, cols, an 8-byte
  // seed, one cell), so a group count the blob cannot hold is rejected
  // before reserving room for it.
  constexpr uint64_t kMinGroupBytes = 11;
  if (num_buckets == 0 || num_groups == 0 || num_groups > num_buckets ||
      num_buckets > (1ULL << 20) ||
      num_groups > reader->remaining() / kMinGroupBytes) {
    return common::Status::CorruptedData("implausible grouped sketch shape");
  }
  GroupedMinMaxSketch result;
  result.num_buckets_ = static_cast<int>(num_buckets);
  result.num_groups_ = static_cast<int>(num_groups);
  result.group_width_ = static_cast<int>(
      common::CeilDiv(num_buckets, num_groups));
  result.groups_.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    MinMaxSketch sketch(1, 1);
    SKETCHML_RETURN_IF_ERROR(MinMaxSketch::Deserialize(reader, &sketch));
    result.groups_.push_back(std::move(sketch));
  }
  *out = std::move(result);
  return common::Status::Ok();
}

}  // namespace sketchml::sketch
