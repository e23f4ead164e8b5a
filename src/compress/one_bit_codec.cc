#include "compress/one_bit_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/bit_util.h"
#include "common/byte_buffer.h"

namespace sketchml::compress {
namespace {

/// Mean magnitude of one sign's `count` values, which sum to `sum`; where
/// that overflows, the sum of each magnitude / count, saturated.
double MeanMagnitude(const common::SparseGradient& grad, bool positive,
                     double sum, uint64_t count) {
  if (count == 0) return 0.0;
  if (std::isfinite(sum)) return sum / count;
  double mean = 0.0;
  for (const auto& p : grad) {
    if ((p.value >= 0) == positive) mean += std::abs(p.value) / count;
  }
  return std::min(mean, std::numeric_limits<double>::max());
}

}  // namespace

common::Status OneBitCodec::EncodeImpl(const common::SparseGradient& grad,
                                   EncodedGradient* out) {
  common::ByteWriter writer(grad.size() * 5 + 32);
  writer.WriteVarint(grad.size());

  double pos_sum = 0.0, neg_sum = 0.0;
  uint64_t pos_count = 0, neg_count = 0;
  for (const auto& p : grad) {
    if (p.value >= 0) {
      pos_sum += p.value;
      ++pos_count;
    } else {
      neg_sum += -p.value;
      ++neg_count;
    }
  }
  writer.WriteDouble(MeanMagnitude(grad, /*positive=*/true, pos_sum,
                                    pos_count));
  writer.WriteDouble(MeanMagnitude(grad, /*positive=*/false, neg_sum,
                                    neg_count));

  for (const auto& p : grad) {
    if (p.key > std::numeric_limits<uint32_t>::max()) {
      return common::Status::OutOfRange("key exceeds 32 bits");
    }
    writer.WriteU32(static_cast<uint32_t>(p.key));
  }
  std::vector<uint8_t> bits(common::CeilDiv(grad.size(), 8), 0);
  for (size_t i = 0; i < grad.size(); ++i) {
    if (grad[i].value >= 0) bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  writer.WriteBytes(bits);
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

common::Status OneBitCodec::DecodeImpl(const EncodedGradient& in,
                                   common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&count));
  // Each pair takes at least 4 key bytes plus a sign bit.
  if (count > in.bytes.size() / 4) {
    return common::Status::CorruptedData("implausible pair count");
  }
  double pos_mean = 0.0, neg_mean = 0.0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&pos_mean));
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&neg_mean));

  out->assign(count, {});
  SKETCHML_RETURN_IF_ERROR(ReadRawKeys(&reader, out));
  std::vector<uint8_t> bits(common::CeilDiv(count, 8));
  SKETCHML_RETURN_IF_ERROR(reader.ReadRaw(bits.data(), bits.size()));
  for (uint64_t i = 0; i < count; ++i) {
    const bool positive = (bits[i / 8] >> (i % 8)) & 1;
    (*out)[i].value = positive ? pos_mean : -neg_mean;
  }
  return common::Status::Ok();
}

}  // namespace sketchml::compress
