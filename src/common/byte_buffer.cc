#include "common/byte_buffer.h"

#include "common/logging.h"

namespace sketchml::common {

void ByteWriter::WriteUintN(uint64_t v, int nbytes) {
  SKETCHML_CHECK(nbytes >= 1 && nbytes <= 8);
  // A value wider than the declared width would be silently truncated on
  // the wire and decode to a *different key* — exactly the corruption
  // class §3.4 forbids. Callers size nbytes from the value; hold them to it.
  SKETCHML_DCHECK(nbytes == 8 || (v >> (8 * nbytes)) == 0)
      << "WriteUintN(" << v << ", " << nbytes << ") would truncate";
  for (int i = 0; i < nbytes; ++i) {
    buffer_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buffer_.push_back(static_cast<uint8_t>(v));
}

Status ByteReader::ReadU8(uint8_t* out) {
  if (pos_ + 1 > len_) return Status::CorruptedData("read past end of buffer");
  *out = data_[pos_++];
  SKETCHML_DCHECK_LE(pos_, len_);
  return Status::Ok();
}

Status ByteReader::ReadUintN(int nbytes, uint64_t* out) {
  if (nbytes < 1 || nbytes > 8) {
    return Status::InvalidArgument("ReadUintN width must be in [1, 8]");
  }
  if (pos_ + static_cast<size_t>(nbytes) > len_) {
    return Status::CorruptedData("read past end of buffer");
  }
  uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += nbytes;
  SKETCHML_DCHECK_LE(pos_, len_);
  *out = v;
  return Status::Ok();
}

Status ByteReader::ReadVarint(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= len_) return Status::CorruptedData("truncated varint");
    if (shift >= 64) return Status::CorruptedData("varint overflows 64 bits");
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = v;
  return Status::Ok();
}

Status ByteReader::ReadRaw(void* out, size_t len) {
  if (pos_ + len > len_) {
    return Status::CorruptedData("read past end of buffer");
  }
  if (len == 0) return Status::Ok();  // out may be null (empty vector data()).
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  SKETCHML_DCHECK_LE(pos_, len_);
  return Status::Ok();
}

void TwoBitWriter::Append(uint8_t symbol) {
  SKETCHML_CHECK_LE(symbol, 3);
  const size_t bit_offset = (count_ % 4) * 2;
  if (bit_offset == 0) bytes_.push_back(0);
  bytes_.back() |= static_cast<uint8_t>(symbol << bit_offset);
  ++count_;
}

}  // namespace sketchml::common
