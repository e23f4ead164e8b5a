#include "compress/codec.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/obs.h"
#include "common/trace.h"

namespace sketchml::compress {

common::Status ValidateEncodable(const common::SparseGradient& grad) {
  // One pass that ANDs every test together instead of branching on each:
  // NaN fails `|v| <= DBL_MAX` as well as ±inf does.
  bool ordered = true;
  bool finite = true;
  for (size_t i = 0; i < grad.size(); ++i) {
    ordered &= i == 0 || grad[i - 1].key < grad[i].key;
    finite &= std::abs(grad[i].value) <= std::numeric_limits<double>::max();
  }
  if (!ordered) {
    return common::Status::InvalidArgument(
        "gradient keys must be strictly increasing; call SortByKey first");
  }
  if (!finite) {
    return common::Status::InvalidArgument(
        "gradient values must be finite (no NaN or infinity)");
  }
  return common::Status::Ok();
}

common::Status ReadRawKeys(common::ByteReader* reader,
                           common::SparseGradient* out) {
  std::span<const uint8_t> bytes;
  SKETCHML_RETURN_IF_ERROR(
      reader->ReadSpan(out->size() * sizeof(uint32_t), &bytes));
  bool ascending = true;
  uint32_t previous = 0;
  for (size_t i = 0; i < out->size(); ++i) {
    uint32_t key = 0;
    std::memcpy(&key, bytes.data() + i * sizeof(key), sizeof(key));
    ascending &= i == 0 || key > previous;
    previous = key;
    (*out)[i].key = key;
  }
  if (!ascending) {
    return common::Status::CorruptedData("keys not strictly increasing");
  }
  return common::Status::Ok();
}

void GradientCodec::SetMetricLabel(std::string_view key,
                                   std::string_view value) {
  for (auto& [k, v] : metric_labels_) {
    if (k == key) {
      v = std::string(value);
      instruments_.initialized = false;  // Re-resolve on next use.
      return;
    }
  }
  metric_labels_.emplace_back(std::string(key), std::string(value));
  instruments_.initialized = false;
}

GradientCodec::Instruments& GradientCodec::GetInstruments() {
  if (!instruments_.initialized) {
    const std::string name = Name();
    // Identity label first, then any caller-attached labels (worker=w).
    obs::MetricLabels labels{{"codec", name}};
    labels.insert(labels.end(), metric_labels_.begin(), metric_labels_.end());
    auto& registry = obs::MetricsRegistry::Global();
    instruments_.encode_span_name = "encode/" + name;
    instruments_.decode_span_name = "decode/" + name;
    const auto counter = [&](const char* field) {
      return registry.GetCounter(std::string("codec/") + field, labels);
    };
    // Latency sketches merge across instances, so every fork shares the
    // codec's one slot instead of keeping a per-worker one.
    const auto sketch = [&](const char* field) {
      return obs::SketchHistogramRegistry::Global().Get(
          std::string("codec/") + field, {{"codec", name}});
    };
    instruments_.encode_calls = counter("encode_calls");
    instruments_.encode_pairs = counter("encode_pairs");
    instruments_.encode_bytes = counter("encode_bytes");
    instruments_.raw_bytes = counter("raw_bytes");
    instruments_.encode_errors = counter("encode_errors");
    instruments_.decode_calls = counter("decode_calls");
    instruments_.decode_pairs = counter("decode_pairs");
    instruments_.decode_bytes = counter("decode_bytes");
    instruments_.decode_errors = counter("decode_errors");
    instruments_.encode_ns = sketch("encode_ns");
    instruments_.decode_ns = sketch("decode_ns");
    instruments_.initialized = true;
  }
  return instruments_;
}

common::Status GradientCodec::Encode(const common::SparseGradient& grad,
                                     EncodedGradient* out) {
  SKETCHML_RETURN_IF_ERROR(ValidateEncodable(grad));
  if (!obs::MetricsEnabled() && !obs::TracingEnabled()) {
    return EncodeImpl(grad, out);
  }

  Instruments& ins = GetInstruments();
  obs::TraceSpan span("codec", ins.encode_span_name);
  const uint64_t start_ns = obs::NowNs();
  const common::Status status = EncodeImpl(grad, out);
  const uint64_t elapsed_ns = obs::NowNs() - start_ns;

  span.Arg("pairs", static_cast<double>(grad.size()));
  if (!status.ok()) {
    ins.encode_errors.Increment();
    return status;
  }
  span.Arg("bytes", static_cast<double>(out->size()));
  ins.encode_calls.Increment();
  ins.encode_pairs.Add(static_cast<double>(grad.size()));
  ins.encode_bytes.Add(static_cast<double>(out->size()));
  // Uncompressed size of the same message (16 bytes per key/value pair):
  // raw_bytes / encode_bytes is the codec's measured compression ratio.
  ins.raw_bytes.Add(
      static_cast<double>(grad.size() * sizeof(common::GradientPair)));
  ins.encode_ns.Record(static_cast<double>(elapsed_ns));
  return status;
}

common::Status GradientCodec::Decode(const EncodedGradient& in,
                                     common::SparseGradient* out) {
  if (!obs::MetricsEnabled() && !obs::TracingEnabled()) {
    const common::Status status = DecodeImpl(in, out);
    SKETCHML_DCHECK(!status.ok() || common::IsSortedByKey(*out));
    return status;
  }

  Instruments& ins = GetInstruments();
  obs::TraceSpan span("codec", ins.decode_span_name);
  const uint64_t start_ns = obs::NowNs();
  const common::Status status = DecodeImpl(in, out);
  const uint64_t elapsed_ns = obs::NowNs() - start_ns;

  span.Arg("bytes", static_cast<double>(in.size()));
  if (!status.ok()) {
    ins.decode_errors.Increment();
    return status;
  }
  SKETCHML_DCHECK(common::IsSortedByKey(*out));
  span.Arg("pairs", static_cast<double>(out->size()));
  ins.decode_calls.Increment();
  ins.decode_bytes.Add(static_cast<double>(in.size()));
  ins.decode_pairs.Add(static_cast<double>(out->size()));
  ins.decode_ns.Record(static_cast<double>(elapsed_ns));
  return status;
}

}  // namespace sketchml::compress
