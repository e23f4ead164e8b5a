// Sub-layer timings of the SketchML encoder: the quantile-bucket quantizer
// (KLL build, bucket search), the grouped MinMaxSketch (insert, query) and
// the delta-binary key codec (encode, decode), each called through its
// public API on the shapes SketchML's encoder gives it. Every pass over
// the inputs is one ("bench", <layer>) span; throughputs are read
// back from the trace.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "core/sketchml_codec.h"
#include "core/sketchml_config.h"
#include "dist/trace_analysis.h"
#include "harness.h"
#include "sketch/grouped_min_max_sketch.h"

namespace perfbench {
namespace {

using namespace sketchml;

// Per-stream sizing of core/sketchml_codec.cc (EffectiveBuckets,
// TotalCols) and its per-message seed, so each sub-layer sees exactly
// the shapes the encoder hands it.
int EffectiveBuckets(const core::SketchMlConfig& config, size_t n) {
  return std::min(config.num_buckets,
                  std::max(16, static_cast<int>(n / 8)));
}

int TotalCols(const core::SketchMlConfig& config, size_t n) {
  return std::max(config.min_cols,
                  static_cast<int>(std::ceil(static_cast<double>(n) *
                                             config.col_ratio)));
}

constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

/// One sign stream of one message, with the state each pass leaves.
struct Stream {
  std::vector<uint64_t> keys;
  std::vector<double> values;  // Magnitudes, in key order.
  int buckets = 0;
  int groups = 0;
  int cols = 0;
  uint64_t seed = 0;

  std::optional<compress::QuantileBucketQuantizer> quantizer;
  std::vector<uint16_t> bucket_of;
  std::vector<std::vector<uint64_t>> group_keys;
  std::vector<std::vector<uint8_t>> group_locals;
  std::optional<sketch::GroupedMinMaxSketch> sketch;
  std::vector<int> queried;
  common::ByteWriter delta;
  std::vector<std::vector<uint64_t>> decoded_keys;

  // Caller-owned scratch, reused across calls as the encoder does.
  std::vector<uint32_t> hash_idx;
  std::vector<uint8_t> query_locals;
  compress::DeltaBinaryKeyCodec::EncodeScratch delta_scratch;
};

std::vector<Stream> SplitStreams(
    const std::vector<common::SparseGradient>& messages,
    const core::SketchMlConfig& config) {
  std::vector<Stream> streams;
  for (size_t m = 0; m < messages.size(); ++m) {
    Stream pos, neg;
    for (const auto& pair : messages[m]) {
      Stream& s = pair.value >= 0 ? pos : neg;
      s.keys.push_back(pair.key);
      s.values.push_back(std::abs(pair.value));
    }
    const uint64_t seed = config.seed + kSeedStride * m;
    pos.seed = seed;
    neg.seed = seed + 1;
    for (Stream* s : {&pos, &neg}) {
      if (s->keys.empty()) continue;
      s->buckets = EffectiveBuckets(config, s->keys.size());
      s->groups = std::min(config.num_groups, s->buckets);
      s->cols = TotalCols(config, s->keys.size());
      streams.push_back(std::move(*s));
    }
  }
  return streams;
}

/// Builds the quantizer, buckets and the per-group key partition, as the
/// encoder does before it inserts into the sketch.
void Prepare(const core::SketchMlConfig& config, Stream* s) {
  s->quantizer = compress::QuantileBucketQuantizer::Build(
      s->values, s->buckets, config.quantile_sketch_k, s->seed);
  s->bucket_of.resize(s->values.size());
  s->quantizer->BucketsOf(s->values, s->bucket_of.data());
  s->sketch.emplace(s->buckets, s->groups, config.rows, s->cols, s->seed);
  const int width = s->sketch->group_width();
  s->group_keys.assign(s->groups, {});
  s->group_locals.assign(s->groups, {});
  for (size_t i = 0; i < s->keys.size(); ++i) {
    const int g = s->bucket_of[i] / width;
    s->group_keys[g].push_back(s->keys[i]);
    s->group_locals[g].push_back(
        static_cast<uint8_t>(s->bucket_of[i] - g * width));
  }
  s->queried.resize(s->keys.size());
  s->decoded_keys.assign(s->groups, {});
}

struct Pass {
  const char* span;    // ("bench", span) around each pass.
  const char* metric;  // Throughput metric, in M items per second.
  const char* unit;
  std::function<size_t(Stream*)> run;  // Items processed in one stream.
};

}  // namespace

void MeasureSublayers(const std::vector<common::SparseGradient>& messages,
                      uint64_t seed, double seconds, bool short_mode,
                      Report* report) {
  core::SketchMlConfig config;
  config.seed = seed;

  // Wire-byte breakdown of the full codec on the same messages.
  core::SketchMlCodec codec(config);
  core::SpaceCost space;
  for (const auto& message : messages) {
    compress::EncodedGradient encoded;
    const common::Status status = codec.Encode(message, &encoded);
    if (!status.ok()) {
      report->Fail("sketchml encode: " + status.ToString());
      continue;
    }
    const core::SpaceCost& cost = codec.last_space_cost();
    space.header_bytes += cost.header_bytes;
    space.bucket_mean_bytes += cost.bucket_mean_bytes;
    space.sketch_bytes += cost.sketch_bytes;
    space.key_bytes += cost.key_bytes;
  }
  const double per_message =
      1.0 / static_cast<double>(std::max<size_t>(1, messages.size()));
  report->Add("core.space_header_bytes", space.header_bytes * per_message,
              "bytes");
  report->Add("core.space_means_bytes", space.bucket_mean_bytes * per_message,
              "bytes");
  report->Add("core.space_sketch_bytes", space.sketch_bytes * per_message,
              "bytes");
  report->Add("core.space_keys_bytes", space.key_bytes * per_message,
              "bytes");

  std::vector<Stream> streams = SplitStreams(messages, config);
  size_t values = 0;
  for (Stream& s : streams) {
    Prepare(config, &s);
    values += s.values.size();
  }

  const Pass passes[] = {
      {"compress/quantizer_build", "compress.quantizer_build_mvals_per_s",
       "Mvals/s",
       [&config](Stream* s) {
         s->quantizer = compress::QuantileBucketQuantizer::Build(
             s->values, s->buckets, config.quantile_sketch_k, s->seed);
         return s->values.size();
       }},
      {"compress/bucket_search", "compress.bucket_search_mvals_per_s",
       "Mvals/s",
       [](Stream* s) {
         s->quantizer->BucketsOf(s->values, s->bucket_of.data());
         return s->values.size();
       }},
      {"sketch/minmax_insert", "sketch.minmax_insert_mkeys_per_s", "Mkeys/s",
       [](Stream* s) {
         for (int g = 0; g < s->groups; ++g) {
           s->sketch->InsertGroupBatch(g, s->group_keys[g], s->group_locals[g],
                                       &s->hash_idx);
         }
         return s->keys.size();
       }},
      {"sketch/minmax_query", "sketch.minmax_query_mkeys_per_s", "Mkeys/s",
       [](Stream* s) {
         int* out = s->queried.data();
         for (int g = 0; g < s->groups; ++g) {
           s->sketch->QueryGroupBatch(g, s->group_keys[g], out, &s->hash_idx,
                                      &s->query_locals);
           out += s->group_keys[g].size();
         }
         return s->keys.size();
       }},
      {"compress/delta_encode", "compress.delta_encode_mkeys_per_s",
       "Mkeys/s",
       [](Stream* s) {
         s->delta.Truncate(0);
         for (const auto& keys : s->group_keys) {
           if (!compress::DeltaBinaryKeyCodec::Encode(keys, &s->delta,
                                                      &s->delta_scratch)
                    .ok()) {
             return size_t{0};
           }
         }
         return s->keys.size();
       }},
      {"compress/delta_decode", "compress.delta_decode_mkeys_per_s",
       "Mkeys/s",
       [](Stream* s) {
         common::ByteReader reader(s->delta.buffer());
         for (auto& keys : s->decoded_keys) {
           if (!compress::DeltaBinaryKeyCodec::Decode(&reader, &keys).ok()) {
             return size_t{0};
           }
         }
         return s->keys.size();
       }},
  };

  // Each span covers enough values (~200k) to dwarf its own cost; the
  // pass count is capped so one trace ring holds every span.
  const size_t reps =
      std::max<size_t>(1, (200000 + values - 1) / std::max<size_t>(1, values));
  const int min_passes = short_mode ? 1 : 3;
  const int max_passes = 1000;
  obs::TraceLog::Global().Reset();
  obs::SetTracingEnabled(true);
  common::Stopwatch watch;
  for (int pass = 0;
       pass < min_passes ||
       (!short_mode && pass < max_passes && watch.ElapsedSeconds() < seconds);
       ++pass) {
    for (const Pass& p : passes) {
      obs::TraceSpan span("bench", p.span);
      size_t items = 0;
      for (size_t r = 0; r < reps; ++r) {
        for (Stream& s : streams) items += p.run(&s);
      }
      span.Arg("items", static_cast<double>(items));
    }
  }
  obs::SetTracingEnabled(false);
  const auto trace = CollectTrace();
  if (!trace.ok()) {
    report->Fail("sub-layer trace: " + trace.status().ToString());
  }

  // Median per-pass throughput; items per microsecond = M items/s.
  std::map<std::string, std::vector<double>> rates;
  if (trace.ok()) {
    for (const auto& span : trace->spans) {
      if (span.category != "bench" || span.dur_us <= 0.0) continue;
      rates[span.name].push_back(span.ArgOr("items", 0.0) / span.dur_us);
    }
  }
  for (const Pass& p : passes) {
    report->Add(p.metric, Median(rates[p.span]), p.unit);
  }

  // Output checks: keys round-trip exactly, buckets stay in range, and
  // the sketch never reports a bucket above the inserted one (§3.3).
  size_t keys = 0, exact = 0;
  bool keys_ok = true, buckets_ok = true, sketch_ok = true;
  for (const Stream& s : streams) {
    keys_ok = keys_ok && s.decoded_keys == s.group_keys;
    const int width = s.sketch->group_width();
    size_t i = 0;
    for (int g = 0; g < s.groups; ++g) {
      for (const uint8_t local : s.group_locals[g]) {
        const int inserted = g * width + local;
        const int got = s.queried[i++];
        buckets_ok = buckets_ok && inserted < s.buckets;
        sketch_ok = sketch_ok && got <= inserted && got >= g * width;
        exact += got == inserted ? 1 : 0;
        ++keys;
      }
    }
  }
  if (!keys_ok) report->Fail("delta-decoded keys differ from the encoded");
  if (!buckets_ok) report->Fail("bucket index out of range");
  if (!sketch_ok) {
    report->Fail("MinMaxSketch answered above the inserted bucket");
  }
  report->Add("sketch.minmax_exact_share",
              keys > 0 ? static_cast<double>(exact) / static_cast<double>(keys)
                       : 0.0,
              "ratio");
}

}  // namespace perfbench
