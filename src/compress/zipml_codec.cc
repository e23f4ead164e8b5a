#include "compress/zipml_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/byte_buffer.h"
#include "common/logging.h"

namespace sketchml::compress {
namespace {

/// The grid step (hi - lo) / levels. Where hi - lo overflows, each end is
/// divided first; everywhere else this is the plain quotient.
double GridStep(double lo, double hi, uint64_t levels) {
  if (!(hi > lo)) return 0.0;
  const double step = (hi - lo) / static_cast<double>(levels);
  if (std::isfinite(step)) return step;
  return hi / static_cast<double>(levels) - lo / static_cast<double>(levels);
}

/// Grid level `level`'s value, lo + level * step. Where that overflows it
/// is computed at half scale and kept in [lo, hi], where the exact value
/// lies, so every level of a finite range is finite.
double GridValue(double lo, double hi, double step, uint64_t level) {
  const double value = lo + static_cast<double>(level) * step;
  if (std::isfinite(value)) return value;
  const double half = 0.5 * lo + static_cast<double>(level) * (0.5 * step);
  return 2.0 * std::min(std::max(half, 0.5 * lo), 0.5 * hi);
}

}  // namespace

ZipMlCodec::ZipMlCodec(int bits, uint64_t seed, bool stochastic_rounding)
    : bits_(bits),
      seed_(seed),
      rng_(seed),
      stochastic_rounding_(stochastic_rounding) {
  SKETCHML_CHECK(bits == 8 || bits == 16) << "ZipML supports 8 or 16 bits";
}

common::Status ZipMlCodec::EncodeImpl(const common::SparseGradient& grad,
                                  EncodedGradient* out) {
  const int value_bytes = bits_ / 8;
  common::ByteWriter writer(grad.size() * (4 + value_bytes) + 32);
  writer.WriteU8(static_cast<uint8_t>(bits_));
  writer.WriteVarint(grad.size());

  double lo = 0.0, hi = 0.0;
  if (!grad.empty()) {
    lo = hi = grad.front().value;
    for (const auto& p : grad) {
      lo = std::min(lo, p.value);
      hi = std::max(hi, p.value);
    }
  }
  writer.WriteDouble(lo);
  writer.WriteDouble(hi);

  for (const auto& p : grad) {
    if (p.key > std::numeric_limits<uint32_t>::max()) {
      return common::Status::OutOfRange("key exceeds 32 bits");
    }
    writer.WriteU32(static_cast<uint32_t>(p.key));
  }

  const uint64_t levels = (1ULL << bits_) - 1;
  const double width = GridStep(lo, hi, levels);
  for (const auto& p : grad) {
    uint64_t level = 0;
    if (width > 0.0) {
      double exact = (p.value - lo) / width;
      if (!std::isfinite(exact)) exact = p.value / width - lo / width;
      const double floor_level = std::floor(exact);
      double chosen = floor_level;
      if (stochastic_rounding_) {
        // Round up with probability equal to the fractional part, so the
        // expected decoded value equals the input (unbiased quantizer).
        const double frac = exact - floor_level;
        if (rng_.NextBernoulli(frac)) chosen += 1.0;
      } else {
        chosen = std::round(exact);
      }
      level = static_cast<uint64_t>(
          std::clamp(chosen, 0.0, static_cast<double>(levels)));
    }
    writer.WriteUintN(level, value_bytes);
  }
  out->bytes = writer.TakeBuffer();
  return common::Status::Ok();
}

common::Status ZipMlCodec::DecodeImpl(const EncodedGradient& in,
                                  common::SparseGradient* out) {
  common::ByteReader reader(in.bytes);
  uint8_t bits = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&bits));
  if (bits != 8 && bits != 16) {
    return common::Status::CorruptedData("bad ZipML bit width");
  }
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&count));
  // Each pair takes at least 5 bytes (4-byte key + 1-byte level).
  if (count > in.bytes.size() / 5) {
    return common::Status::CorruptedData("implausible pair count");
  }
  double lo = 0.0, hi = 0.0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&lo));
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&hi));

  out->assign(count, {});
  SKETCHML_RETURN_IF_ERROR(ReadRawKeys(&reader, out));
  const uint64_t levels = (1ULL << bits) - 1;
  const double width = GridStep(lo, hi, levels);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t level = 0;
    SKETCHML_RETURN_IF_ERROR(reader.ReadUintN(bits / 8, &level));
    (*out)[i].value = GridValue(lo, hi, width, level);
  }
  return common::Status::Ok();
}

}  // namespace sketchml::compress
