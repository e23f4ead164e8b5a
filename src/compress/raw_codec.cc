#include "compress/raw_codec.h"

#include <algorithm>
#include <limits>

#include "common/byte_buffer.h"

namespace sketchml::compress {

common::Status RawCodec::EncodeImpl(const common::SparseGradient& grad,
                                EncodedGradient* out) {
  const bool is_double = value_type_ == ValueType::kDouble;
  common::ByteWriter writer(grad.size() * (is_double ? 12 : 8) + 16);
  writer.WriteU8(is_double ? 1 : 0);
  writer.WriteVarint(grad.size());
  for (const auto& pair : grad) {
    if (pair.key > std::numeric_limits<uint32_t>::max()) {
      return common::Status::OutOfRange("key exceeds 32 bits");
    }
    writer.WriteU32(static_cast<uint32_t>(pair.key));
  }
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  for (const auto& pair : grad) {
    if (is_double) {
      writer.WriteDouble(pair.value);
    } else {
      writer.WriteFloat(
          static_cast<float>(std::clamp(pair.value, -kFloatMax, kFloatMax)));
    }
  }
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

common::Status RawCodec::DecodeImpl(const EncodedGradient& in,
                                common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint8_t is_double = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&is_double));
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&count));
  // Each pair takes at least 8 bytes on the wire; reject counts that
  // cannot fit before allocating.
  if (count > in.bytes.size() / 8) {
    return common::Status::CorruptedData("implausible pair count");
  }
  out->assign(count, {});
  SKETCHML_RETURN_IF_ERROR(ReadRawKeys(&reader, out));
  for (uint64_t i = 0; i < count; ++i) {
    if (is_double) {
      double v = 0;
      SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&v));
      (*out)[i].value = v;
    } else {
      float v = 0;
      SKETCHML_RETURN_IF_ERROR(reader.ReadFloat(&v));
      (*out)[i].value = v;
    }
  }
  return common::Status::Ok();
}

}  // namespace sketchml::compress
