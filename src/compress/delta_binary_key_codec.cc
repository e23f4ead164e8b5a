#include "compress/delta_binary_key_codec.h"

#include <cstring>
#include <limits>

#include "common/bit_util.h"
#include "common/simd.h"

namespace sketchml::compress {

common::Status DeltaBinaryKeyCodec::Encode(std::span<const uint64_t> keys,
                                           common::ByteWriter* writer,
                                           EncodeScratch* scratch) {
  writer->WriteVarint(keys.size());
  if (keys.empty()) return common::Status::Ok();

  const size_t count = keys.size();
  scratch->deltas.resize(count);
  scratch->widths.resize(count);
  size_t total_delta_bytes = 0;
  switch (common::simd::DeltaScan(keys.data(), count, scratch->deltas.data(),
                                  scratch->widths.data(),
                                  &total_delta_bytes)) {
    case common::simd::DeltaScanStatus::kOk:
      break;
    case common::simd::DeltaScanStatus::kNotIncreasing:
      return common::Status::InvalidArgument(
          "keys must be strictly increasing");
    case common::simd::DeltaScanStatus::kDeltaTooWide:
      return common::Status::OutOfRange("key delta exceeds 4 bytes");
  }

  // Scatter the 2-bit flags into the zero-initialized flag region, then
  // lay the variable-width deltas down with full 8-byte stores running
  // into Extend slack — same wire bytes as the old TwoBitWriter +
  // WriteUintN loops, without the staging vector or per-byte appends.
  const size_t flags_offset = writer->Extend(common::CeilDiv(count, 4));
  uint8_t* flags = writer->MutableData() + flags_offset;
  for (size_t i = 0; i < count; ++i) {
    flags[i >> 2] |= static_cast<uint8_t>((scratch->widths[i] - 1)
                                          << ((i & 3) * 2));
  }
  const size_t delta_offset =
      writer->Extend(total_delta_bytes + sizeof(uint64_t) - 1);
  uint8_t* cursor = writer->MutableData() + delta_offset;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t delta = scratch->deltas[i];
    std::memcpy(cursor, &delta, sizeof(delta));  // Little-endian host.
    cursor += scratch->widths[i];
  }
  writer->Truncate(delta_offset + total_delta_bytes);
  return common::Status::Ok();
}

common::Status DeltaBinaryKeyCodec::DecodeAppend(common::ByteReader* reader,
                                                 std::vector<uint64_t>* keys) {
  uint64_t count = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&count));
  if (count == 0) return common::Status::Ok();
  // Every key costs at least 1 delta byte *plus* a quarter byte of flag
  // stream; a count that cannot fit in the remaining buffer is
  // corruption, and checking before resize() prevents adversarial giant
  // allocations. (The first clause keeps the arithmetic overflow-free.)
  if (count > reader->remaining() ||
      count + common::CeilDiv(count, 4) > reader->remaining()) {
    return common::Status::CorruptedData("implausible key count");
  }
  std::span<const uint8_t> flags;
  SKETCHML_RETURN_IF_ERROR(
      reader->ReadSpan(common::CeilDiv(count, 4), &flags));

  // Flag symbol s means an (s + 1)-byte delta, so the delta block is
  // `count` bytes plus the symbol sum. Padding symbols past `count` in
  // the last flag byte are masked off: no key reads them.
  const auto symbol_sum = [](unsigned b) {
    return (b & 3) + ((b >> 2) & 3) + ((b >> 4) & 3) + (b >> 6);
  };
  size_t delta_bytes = count;
  for (size_t i = 0; i + 1 < flags.size(); ++i) {
    delta_bytes += symbol_sum(flags[i]);
  }
  const unsigned last_mask =
      count % 4 == 0 ? 0xFFu : (1u << (2 * (count % 4))) - 1;
  delta_bytes += symbol_sum(flags.back() & last_mask);
  std::span<const uint8_t> deltas;
  SKETCHML_RETURN_IF_ERROR(reader->ReadSpan(delta_bytes, &deltas));

  // Wide loads may run past the delta block into the rest of the
  // message, never past the reader's buffer.
  constexpr uint64_t kWidthMask[4] = {0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF};
  const uint8_t* cursor = deltas.data();
  const uint8_t* const buffer_end =
      deltas.data() + deltas.size() + reader->remaining();
  const size_t first = keys->size();
  keys->resize(first + count);
  uint64_t* out = keys->data() + first;
  uint64_t key = 0;
  bool zero_delta = false;
  for (size_t i = 0; i < count; ++i) {
    const unsigned symbol = (flags[i >> 2] >> ((i & 3) * 2)) & 3;
    uint64_t delta = 0;
    if (buffer_end - cursor >= 8) [[likely]] {
      std::memcpy(&delta, cursor, sizeof(delta));  // Little-endian host.
      delta &= kWidthMask[symbol];
    } else {
      for (unsigned b = 0; b <= symbol; ++b) {
        delta |= uint64_t{cursor[b]} << (8 * b);
      }
    }
    cursor += symbol + 1;
    zero_delta |= (delta == 0) & (i != 0);
    key += delta;
    out[i] = key;
  }
  if (zero_delta) {
    keys->resize(first);
    return common::Status::CorruptedData("zero delta for non-first key");
  }
  return common::Status::Ok();
}

size_t DeltaBinaryKeyCodec::EncodedSize(std::span<const uint64_t> keys) {
  size_t total = static_cast<size_t>(common::VarintSize(keys.size())) +
                 common::CeilDiv(keys.size(), 4);
  uint64_t previous = 0;
  for (uint64_t key : keys) {
    total += static_cast<size_t>(common::BytesNeeded(key - previous));
    previous = key;
  }
  return keys.empty() ? common::VarintSize(0) : total;
}

common::Status BitmapKeyCodec::Encode(const std::vector<uint64_t>& keys,
                                      uint64_t dim,
                                      common::ByteWriter* writer) {
  writer->WriteVarint(dim);
  std::vector<uint8_t> bits(common::CeilDiv(dim, 8), 0);
  uint64_t previous = 0;
  bool first = true;
  for (uint64_t key : keys) {
    if (!first && key <= previous) {
      return common::Status::InvalidArgument(
          "keys must be strictly increasing");
    }
    if (key >= dim) {
      return common::Status::OutOfRange("key exceeds bitmap dimension");
    }
    bits[key / 8] |= static_cast<uint8_t>(1u << (key % 8));
    previous = key;
    first = false;
  }
  writer->WriteBytes(bits);
  return common::Status::Ok();
}

common::Status BitmapKeyCodec::Decode(common::ByteReader* reader,
                                      std::vector<uint64_t>* keys) {
  uint64_t dim = 0;
  SKETCHML_RETURN_IF_ERROR(reader->ReadVarint(&dim));
  // The bitmap itself must fit in what remains of the buffer; checking
  // first prevents adversarial giant allocations.
  if (common::CeilDiv(dim, 8) > reader->remaining()) {
    return common::Status::CorruptedData("implausible bitmap dimension");
  }
  const size_t nbytes = common::CeilDiv(dim, 8);
  std::vector<uint8_t> bits(nbytes);
  SKETCHML_RETURN_IF_ERROR(reader->ReadRaw(bits.data(), nbytes));
  keys->clear();
  for (uint64_t byte = 0; byte < nbytes; ++byte) {
    uint8_t b = bits[byte];
    while (b != 0) {
      const int bit = __builtin_ctz(b);
      const uint64_t key = byte * 8 + static_cast<uint64_t>(bit);
      if (key < dim) keys->push_back(key);
      b = static_cast<uint8_t>(b & (b - 1));
    }
  }
  return common::Status::Ok();
}

size_t BitmapKeyCodec::EncodedSize(uint64_t dim) {
  return static_cast<size_t>(common::VarintSize(dim)) +
         common::CeilDiv(dim, 8);
}

}  // namespace sketchml::compress
