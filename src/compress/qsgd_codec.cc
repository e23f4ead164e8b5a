#include "compress/qsgd_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/bit_util.h"
#include "common/byte_buffer.h"
#include "common/logging.h"

namespace sketchml::compress {
namespace {

/// Minimal MSB-first bit writer for the Elias-gamma level stream.
class BitWriter {
 public:
  void WriteBit(int bit) {
    if (used_ == 0) bytes_.push_back(0);
    bytes_.back() |= static_cast<uint8_t>(bit << (7 - used_));
    used_ = (used_ + 1) % 8;
  }

  /// Elias gamma for x >= 1: floor(log2 x) zero bits, then x in binary.
  void WriteEliasGamma(uint64_t x) {
    SKETCHML_CHECK_GE(x, 1u);
    const int bits = 64 - __builtin_clzll(x);
    for (int i = 0; i < bits - 1; ++i) WriteBit(0);
    for (int i = bits - 1; i >= 0; --i) WriteBit((x >> i) & 1);
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  int used_ = 0;
};

class BitReader {
 public:
  BitReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  common::Status ReadBit(int* bit) {
    const size_t byte = pos_ / 8;
    if (byte >= len_) return common::Status::CorruptedData("bit underflow");
    *bit = (data_[byte] >> (7 - pos_ % 8)) & 1;
    ++pos_;
    return common::Status::Ok();
  }

  common::Status ReadEliasGamma(uint64_t* x) {
    int zeros = 0;
    int bit = 0;
    SKETCHML_RETURN_IF_ERROR(ReadBit(&bit));
    while (bit == 0) {
      if (++zeros > 63) return common::Status::CorruptedData("bad gamma");
      SKETCHML_RETURN_IF_ERROR(ReadBit(&bit));
    }
    uint64_t value = 1;
    for (int i = 0; i < zeros; ++i) {
      SKETCHML_RETURN_IF_ERROR(ReadBit(&bit));
      value = (value << 1) | static_cast<uint64_t>(bit);
    }
    *x = value;
    return common::Status::Ok();
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace

QsgdCodec::QsgdCodec(int levels, uint64_t seed)
    : levels_(levels), seed_(seed), rng_(seed) {
  SKETCHML_CHECK_GT(levels, 0);
}

common::Status QsgdCodec::EncodeImpl(const common::SparseGradient& grad,
                                 EncodedGradient* out) {
  common::ByteWriter writer(grad.size() * 6 + 32);
  writer.WriteVarint(grad.size());
  writer.WriteVarint(static_cast<uint64_t>(levels_));

  double norm_sq = 0.0;
  for (const auto& p : grad) norm_sq += p.value * p.value;
  double norm = std::sqrt(norm_sq);
  if (!std::isfinite(norm)) {
    // The squares overflowed; hypot never squares. Any norm at least the
    // largest magnitude keeps the levels unbiased, so DBL_MAX will do.
    norm = 0.0;
    for (const auto& p : grad) norm = std::hypot(norm, p.value);
    norm = std::min(norm, std::numeric_limits<double>::max());
  }
  writer.WriteDouble(norm);

  for (const auto& p : grad) {
    if (p.key > std::numeric_limits<uint32_t>::max()) {
      return common::Status::OutOfRange("key exceeds 32 bits");
    }
    writer.WriteU32(static_cast<uint32_t>(p.key));
  }

  // Signs, one bit per pair.
  std::vector<uint8_t> signs(common::CeilDiv(grad.size(), 8), 0);
  for (size_t i = 0; i < grad.size(); ++i) {
    if (grad[i].value >= 0) signs[i / 8] |= static_cast<uint8_t>(1 << (i % 8));
  }
  writer.WriteBytes(signs);

  // Stochastic levels, Elias-gamma coded as (level + 1).
  BitWriter bits;
  for (const auto& p : grad) {
    uint64_t level = 0;
    if (norm > 0.0) {
      const double exact = std::abs(p.value) / norm * levels_;
      const double floor_level = std::floor(exact);
      level = static_cast<uint64_t>(floor_level);
      if (rng_.NextBernoulli(exact - floor_level)) ++level;
    }
    bits.WriteEliasGamma(level + 1);
  }
  writer.WriteVarint(bits.bytes().size());
  writer.WriteBytes(bits.bytes());
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

common::Status QsgdCodec::DecodeImpl(const EncodedGradient& in,
                                 common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint64_t count = 0, levels = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&count));
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&levels));
  if (levels == 0 || count > in.bytes.size() / 4) {
    return common::Status::CorruptedData("implausible QSGD header");
  }
  double norm = 0.0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&norm));

  out->assign(count, {});
  SKETCHML_RETURN_IF_ERROR(ReadRawKeys(&reader, out));
  std::vector<uint8_t> signs(common::CeilDiv(count, 8));
  SKETCHML_RETURN_IF_ERROR(reader.ReadRaw(signs.data(), signs.size()));

  uint64_t bit_bytes = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&bit_bytes));
  if (bit_bytes > reader.remaining()) {
    return common::Status::CorruptedData("truncated QSGD level stream");
  }
  std::vector<uint8_t> bit_data(bit_bytes);
  SKETCHML_RETURN_IF_ERROR(reader.ReadRaw(bit_data.data(), bit_bytes));
  BitReader bits(bit_data.data(), bit_data.size());
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gamma = 0;
    SKETCHML_RETURN_IF_ERROR(bits.ReadEliasGamma(&gamma));
    const uint64_t level = gamma - 1;
    double magnitude =
        norm * static_cast<double>(level) / static_cast<double>(levels);
    if (!std::isfinite(magnitude)) {
      // norm * level overflowed; the level's share of the norm cannot.
      magnitude =
          norm * (static_cast<double>(level) / static_cast<double>(levels));
    }
    const bool positive = (signs[i / 8] >> (i % 8)) & 1;
    (*out)[i].value = positive ? magnitude : -magnitude;
  }
  return common::Status::Ok();
}

}  // namespace sketchml::compress
