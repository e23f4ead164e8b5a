#include "core/sketchml_codec.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/byte_buffer.h"
#include "common/logging.h"
#include "common/random.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "sketch/grouped_min_max_sketch.h"

namespace sketchml::core {
namespace {

constexpr uint8_t kWireVersion = 1;

/// Splits `grad` into the positive (value >= 0) and negative streams in
/// one branch-free pass: every pair is written to both streams' next slot
/// and only its own stream advances, so the sign, a coin flip on gradient
/// data, never steers a branch. Without `separate_signs` every pair goes
/// to `pos` with its value as is (the §3.3 Problem 1 ablation).
void SplitBySign(const common::SparseGradient& grad, bool separate_signs,
                 SignStream* pos, SignStream* neg) {
  const size_t slots = grad.size() + 1;
  for (SignStream* stream : {pos, neg}) {
    if (stream->capacity < slots) {
      stream->keys = std::make_unique_for_overwrite<uint64_t[]>(slots);
      stream->values = std::make_unique_for_overwrite<double[]>(slots);
      stream->capacity = slots;
    }
  }
  uint64_t* pos_keys = pos->keys.get();
  double* pos_values = pos->values.get();
  uint64_t* neg_keys = neg->keys.get();
  double* neg_values = neg->values.get();
  size_t p = 0;
  size_t q = 0;
  for (const auto& pair : grad) {
    const size_t positive = !separate_signs || pair.value >= 0;
    pos_keys[p] = pair.key;
    pos_values[p] = pair.value;
    neg_keys[q] = pair.key;
    neg_values[q] = -pair.value;
    p += positive;
    q += 1 - positive;
  }
  pos->size = p;
  neg->size = q;
}

int TotalCols(const SketchMlConfig& config, size_t stream_size) {
  const int by_ratio = static_cast<int>(
      std::ceil(static_cast<double>(stream_size) * config.col_ratio));
  return std::max(config.min_cols, by_ratio);
}

/// Effective bucket count for a stream of `stream_size` values: the
/// configured q, shrunk for tiny streams so the 4q-byte means header
/// cannot dominate a small message. With fewer than 8 values per bucket
/// the extra resolution is statistically meaningless anyway.
int EffectiveBuckets(const SketchMlConfig& config, size_t stream_size) {
  const int by_size =
      std::max(16, static_cast<int>(stream_size / 8));
  return std::min(config.num_buckets, by_size);
}

/// Encodes one sign stream, whose values are already magnitudes for the
/// negative stream, so bucket index 0 is the bucket nearest zero and
/// MinMax decay always shrinks magnitudes. `scratch` is caller-owned
/// buffer storage, reused across streams and calls.
///
/// Batch pipeline: one BucketsOf call buckets every value; the pairs are
/// counted per group, then placed, through bucket -> group and bucket ->
/// local tables (no per-pair division or push_back); and each group's
/// keys are inserted and delta-encoded as a block. Min-updates commute
/// and key order within a group is preserved, so the wire bytes are
/// identical to the historical element-at-a-time loop.
common::Status EncodeStream(const SignStream& stream,
                            const SketchMlConfig& config, uint64_t seed,
                            SketchMlCodec::EncodeScratch* scratch,
                            common::ByteWriter* writer, SpaceCost* cost) {
  const size_t n = stream.size;
  writer->WriteVarint(n);
  if (n == 0) return common::Status::Ok();
  const std::span<const uint64_t> keys(stream.keys.get(), n);
  const std::span<const double> values(stream.values.get(), n);

  const int buckets = EffectiveBuckets(config, n);
  const int groups = std::min(config.num_groups, buckets);
  auto quantizer = compress::QuantileBucketQuantizer::Build(
      values, buckets, config.quantile_sketch_k, seed);
  sketch::GroupedMinMaxSketch mm_sketch(buckets, groups, config.rows,
                                        TotalCols(config, n), seed);

  scratch->buckets.resize(n);
  const uint16_t* bucket_of = scratch->buckets.data();
  quantizer.BucketsOf(values, scratch->buckets.data());

  // Counting sort by group: count per bucket (fewer repeats of one counter
  // in a row than per group), sum into run ends, then place each pair at
  // its group's cursor, keeping key order within a group.
  const int width = mm_sketch.group_width();
  uint8_t group_of[256];
  uint8_t local_of[256];
  for (int b = 0; b < buckets; ++b) {
    group_of[b] = static_cast<uint8_t>(b / width);
    local_of[b] = static_cast<uint8_t>(b % width);
  }
  uint32_t per_bucket[256] = {};
  for (size_t i = 0; i < n; ++i) ++per_bucket[bucket_of[i]];
  std::vector<size_t>& ends = scratch->group_ends;
  ends.assign(groups, 0);
  for (int b = 0; b < buckets; ++b) ends[group_of[b]] += per_bucket[b];
  size_t cursor[256];
  size_t run_end = 0;
  for (int g = 0; g < groups; ++g) {
    cursor[g] = run_end;
    run_end += ends[g];
    ends[g] = run_end;
  }
  scratch->group_keys.resize(n);
  scratch->group_locals.resize(n);
  uint64_t* group_keys = scratch->group_keys.data();
  uint8_t* group_locals = scratch->group_locals.data();
  for (size_t i = 0; i < n; ++i) {
    const uint16_t bucket = bucket_of[i];
    const size_t slot = cursor[group_of[bucket]]++;
    group_keys[slot] = keys[i];
    group_locals[slot] = local_of[bucket];
  }
  const auto group_run = [&](int g) {
    const size_t begin = g == 0 ? 0 : ends[g - 1];
    return std::pair(std::span<const uint64_t>(group_keys + begin,
                                               ends[g] - begin),
                     std::span<const uint8_t>(group_locals + begin,
                                              ends[g] - begin));
  };
  for (int g = 0; g < groups; ++g) {
    const auto [run_keys, run_locals] = group_run(g);
    mm_sketch.InsertGroupBatch(g, run_keys, run_locals, &scratch->hash_idx);
  }

  size_t mark = writer->size();
  quantizer.SerializeMeans(writer);
  cost->bucket_mean_bytes += writer->size() - mark;

  mark = writer->size();
  mm_sketch.Serialize(writer);
  cost->sketch_bytes += writer->size() - mark;

  mark = writer->size();
  for (int g = 0; g < groups; ++g) {
    SKETCHML_RETURN_IF_ERROR(compress::DeltaBinaryKeyCodec::Encode(
        group_run(g).first, writer, &scratch->delta));
  }
  cost->key_bytes += writer->size() - mark;
  return common::Status::Ok();
}

/// Decodes one sign stream into `scratch`: each group's keys become one
/// run of `scratch->keys` (strictly increasing, as
/// DeltaBinaryKeyCodec::DecodeAppend guarantees), the stream's signed
/// bucket means extend `scratch->values`, and each key's slot points at
/// the mean its group's sketch answers.
common::Status DecodeStream(common::ByteReader* reader, double sign,
                            SketchMlCodec::DecodeScratch* scratch) {
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&count));
  if (count == 0) return common::Status::Ok();
  // Each pair costs at least one delta byte downstream.
  if (count > reader->remaining()) {
    return common::Status::CorruptedData("implausible stream size");
  }

  compress::QuantileBucketQuantizer quantizer({0.0, 0.0});
  SKETCHML_RETURN_IF_ERROR(
      compress::QuantileBucketQuantizer::DeserializeMeans(reader, &quantizer));

  sketch::GroupedMinMaxSketch mm_sketch(1, 1, 1, 1);
  SKETCHML_RETURN_IF_ERROR(
      sketch::GroupedMinMaxSketch::Deserialize(reader, &mm_sketch));
  if (mm_sketch.num_buckets() != quantizer.num_buckets()) {
    return common::Status::CorruptedData("bucket count mismatch");
  }

  const int base = static_cast<int>(scratch->values.size());
  for (int b = 0; b < quantizer.num_buckets(); ++b) {
    scratch->values.push_back(sign * quantizer.MeanOf(b));
  }
  std::vector<uint64_t>& keys = scratch->keys;
  const size_t stream_begin = keys.size();
  for (int group = 0; group < mm_sketch.num_groups(); ++group) {
    const size_t begin = keys.size();
    SKETCHML_RETURN_IF_ERROR(
        compress::DeltaBinaryKeyCodec::DecodeAppend(reader, &keys));
    scratch->slots.resize(keys.size());
    int* slots = scratch->slots.data() + begin;
    mm_sketch.QueryGroupBatch(group, std::span(keys).subspan(begin), slots,
                              &scratch->hash_idx, &scratch->locals);
    for (size_t i = 0; i < keys.size() - begin; ++i) slots[i] += base;
    scratch->run_ends.push_back(keys.size());
  }
  if (keys.size() - stream_begin != count) {
    return common::Status::CorruptedData("stream key count mismatch");
  }
  return common::Status::Ok();
}

}  // namespace

SketchMlCodec::SketchMlCodec(const SketchMlConfig& config) : config_(config) {
  SKETCHML_CHECK(config.Validate().ok()) << config.Validate().ToString();
}

common::Status SketchMlCodec::EncodeImpl(const common::SparseGradient& grad,
                                     compress::EncodedGradient* out) {
  last_space_cost_ = SpaceCost();
  common::ByteWriter writer(grad.size() * 2 + 64);

  writer.WriteU8(kWireVersion);
  writer.WriteVarint(grad.size());
  last_space_cost_.header_bytes = writer.size();

  SplitBySign(grad, config_.separate_signs, &streams_[0], &streams_[1]);

  // Distinct seeds per message keep hash functions fresh across epochs
  // while staying deterministic for a fixed config seed.
  const uint64_t seed = config_.seed + 0x9E3779B97F4A7C15ULL * encode_calls_;
  ++encode_calls_;

  SKETCHML_RETURN_IF_ERROR(EncodeStream(streams_[0], config_, seed,
                                        &scratch_, &writer,
                                        &last_space_cost_));
  SKETCHML_RETURN_IF_ERROR(EncodeStream(streams_[1], config_, seed + 1,
                                        &scratch_, &writer,
                                        &last_space_cost_));
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

std::unique_ptr<compress::GradientCodec> SketchMlCodec::Fork(
    uint64_t lane) const {
  SketchMlConfig fork_config = config_;
  fork_config.seed = common::LaneSeed(config_.seed, lane);
  return std::make_unique<SketchMlCodec>(fork_config);
}

common::Status SketchMlCodec::DecodeImpl(const compress::EncodedGradient& in,
                                     common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint8_t version = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&version));
  if (version != kWireVersion) {
    return common::Status::CorruptedData("unknown SketchML wire version");
  }
  uint64_t total = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&total));
  // Every pair costs at least one wire byte; validate before reserving.
  if (total > in.bytes.size()) {
    return common::Status::CorruptedData("implausible pair count");
  }

  DecodeScratch& s = decode_scratch_;
  s.keys.clear();
  s.slots.clear();
  s.values.clear();
  s.run_ends.clear();
  SKETCHML_RETURN_IF_ERROR(DecodeStream(&reader, +1.0, &s));
  SKETCHML_RETURN_IF_ERROR(DecodeStream(&reader, -1.0, &s));
  if (s.keys.size() != total) {
    return common::Status::CorruptedData("decoded pair count mismatch");
  }
  if (!common::MergeSortedRuns(
          s.keys, s.run_ends, [&s](size_t i) { return s.values[s.slots[i]]; },
          out, &s.merge)) {
    return common::Status::CorruptedData(
        "key repeated across groups or sign streams");
  }
  return common::Status::Ok();
}

common::Status KeyOnlyCodec::EncodeImpl(const common::SparseGradient& grad,
                                    compress::EncodedGradient* out) {
  common::ByteWriter writer(grad.size() * 10 + 16);
  SKETCHML_RETURN_IF_ERROR(
      compress::DeltaBinaryKeyCodec::Encode(common::Keys(grad), &writer));
  for (const auto& pair : grad) writer.WriteDouble(pair.value);
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

common::Status KeyOnlyCodec::DecodeImpl(const compress::EncodedGradient& in,
                                    common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  std::vector<uint64_t> keys;
  SKETCHML_RETURN_IF_ERROR(
      compress::DeltaBinaryKeyCodec::Decode(&reader, &keys));
  out->assign(keys.size(), {});
  for (size_t i = 0; i < keys.size(); ++i) {
    (*out)[i].key = keys[i];
    SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&(*out)[i].value));
  }
  return common::Status::Ok();
}

QuantileOnlyCodec::QuantileOnlyCodec(const SketchMlConfig& config)
    : config_(config) {}

common::Status QuantileOnlyCodec::EncodeImpl(const common::SparseGradient& grad,
                                         compress::EncodedGradient* out) {
  // Validated here rather than CHECK-ed at construction so a bad config
  // surfaces as a recoverable status instead of silent corruption: the
  // wire format stores bucket indexes as one byte, so any configuration
  // that could yield more than 256 buckets must be rejected up front.
  SKETCHML_RETURN_IF_ERROR(config_.Validate());
  common::ByteWriter writer(grad.size() * 3 + 64);
  writer.WriteU8(kWireVersion);

  SplitBySign(grad, /*separate_signs=*/true, &streams_[0], &streams_[1]);
  const uint64_t seed = config_.seed + 0x9E3779B97F4A7C15ULL * encode_calls_;
  ++encode_calls_;

  for (int s = 0; s < 2; ++s) {
    const size_t n = streams_[s].size;
    writer.WriteVarint(n);
    if (n == 0) continue;
    const std::span<const uint64_t> keys(streams_[s].keys.get(), n);
    const std::span<const double> values(streams_[s].values.get(), n);
    const int buckets = EffectiveBuckets(config_, n);
    auto quantizer = compress::QuantileBucketQuantizer::Build(
        values, buckets, config_.quantile_sketch_k, seed + s);
    if (quantizer.num_buckets() > 256) {
      return common::Status::InvalidArgument(
          "bucket index would not fit one byte: " +
          std::to_string(quantizer.num_buckets()) + " buckets");
    }
    quantizer.SerializeMeans(&writer);
    compress::DeltaBinaryKeyCodec::EncodeScratch delta;
    SKETCHML_RETURN_IF_ERROR(
        compress::DeltaBinaryKeyCodec::Encode(keys, &writer, &delta));
    std::vector<uint16_t> bucket_idx(values.size());
    quantizer.BucketsOf(values, bucket_idx.data());
    const size_t offset = writer.Extend(values.size());
    uint8_t* out_bytes = writer.MutableData() + offset;
    for (size_t i = 0; i < values.size(); ++i) {
      out_bytes[i] = static_cast<uint8_t>(bucket_idx[i]);
    }
  }
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

std::unique_ptr<compress::GradientCodec> QuantileOnlyCodec::Fork(
    uint64_t lane) const {
  SketchMlConfig fork_config = config_;
  fork_config.seed = common::LaneSeed(config_.seed, lane);
  return std::make_unique<QuantileOnlyCodec>(fork_config);
}

common::Status QuantileOnlyCodec::DecodeImpl(
    const compress::EncodedGradient& in,
                                         common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint8_t version = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&version));
  if (version != kWireVersion) {
    return common::Status::CorruptedData("unknown wire version");
  }
  std::vector<uint64_t> keys;
  std::vector<double> values;
  std::vector<size_t> run_ends;  // Each sign stream's keys are one run.
  for (int s = 0; s < 2; ++s) {
    const double sign = s == 0 ? 1.0 : -1.0;
    uint64_t count = 0;
    SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&count));
    if (count == 0) continue;
    if (count > reader.remaining()) {
      return common::Status::CorruptedData("implausible stream size");
    }
    compress::QuantileBucketQuantizer quantizer({0.0, 0.0});
    SKETCHML_RETURN_IF_ERROR(
        compress::QuantileBucketQuantizer::DeserializeMeans(&reader,
                                                            &quantizer));
    const size_t begin = keys.size();
    SKETCHML_RETURN_IF_ERROR(
        compress::DeltaBinaryKeyCodec::DecodeAppend(&reader, &keys));
    if (keys.size() - begin != count) {
      return common::Status::CorruptedData("key count mismatch");
    }
    std::span<const uint8_t> buckets;
    SKETCHML_RETURN_IF_ERROR(reader.ReadSpan(count, &buckets));
    for (const uint8_t bucket : buckets) {
      if (bucket >= quantizer.num_buckets()) {
        return common::Status::CorruptedData("bucket index out of range");
      }
      values.push_back(sign * quantizer.MeanOf(bucket));
    }
    run_ends.push_back(keys.size());
  }
  common::RunMergeScratch merge;
  if (!common::MergeSortedRuns(
          keys, run_ends, [&values](size_t i) { return values[i]; }, out,
          &merge)) {
    return common::Status::CorruptedData("key repeated across sign streams");
  }
  return common::Status::Ok();
}

}  // namespace sketchml::core
