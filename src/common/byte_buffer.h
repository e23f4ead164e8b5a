#ifndef SKETCHML_COMMON_BYTE_BUFFER_H_
#define SKETCHML_COMMON_BYTE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace sketchml::common {

/// Append-only little-endian byte sink used to define codec wire formats.
///
/// All message sizes reported by the benchmark harnesses are the exact
/// `size()` of a `ByteWriter` buffer — never an estimate.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-allocates `capacity` bytes.
  explicit ByteWriter(size_t capacity) { buffer_.reserve(capacity); }

  void WriteU8(uint8_t v) { buffer_.push_back(v); }
  void WriteU16(uint16_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }

  /// Writes exactly the low `nbytes` bytes of `v` (1..8), little-endian.
  /// This is how delta-binary key encoding stores variable-width deltas.
  void WriteUintN(uint64_t v, int nbytes);

  /// LEB128 variable-length encoding (7 bits per byte).
  void WriteVarint(uint64_t v);

  /// Encoded length of `WriteVarint(v)` in bytes — lets SerializedSize
  /// implementations stay exact without writing anything.
  static size_t VarintSize(uint64_t v) {
    size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  }

  void WriteRaw(const void* data, size_t len) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + len);
  }

  void WriteBytes(const std::vector<uint8_t>& bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  void WriteSpan(std::span<const uint8_t> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  /// Grows capacity to at least `capacity` total bytes. Callers that can
  /// size a message exactly (EncodedSize / SerializedSize) reserve once so
  /// the whole wire buffer is a single allocation.
  void Reserve(size_t capacity) { buffer_.reserve(capacity); }

  /// Appends `n` zero bytes and returns the offset of the first one.
  /// Together with `MutableData` this lets batch encoders frame a region
  /// and fill it in place (e.g. scatter 2-bit flags, write variable-width
  /// deltas with 8-byte stores into over-allocated slack) instead of
  /// pushing byte-at-a-time.
  size_t Extend(size_t n) {
    const size_t offset = buffer_.size();
    buffer_.resize(offset + n);
    return offset;
  }

  /// Mutable view of the bytes written so far. Invalidated by any
  /// subsequent write/Extend (the buffer may reallocate).
  uint8_t* MutableData() { return buffer_.data(); }

  /// Drops bytes past `new_size` (trims Extend slack). Never grows.
  void Truncate(size_t new_size) {
    SKETCHML_DCHECK_LE(new_size, buffer_.size());
    buffer_.resize(new_size);
  }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked little-endian reader over a byte span.
///
/// All reads return a `Status`; a truncated or corrupted message yields
/// `kCorruptedData` instead of undefined behaviour.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<uint8_t>& buffer)
      : data_(buffer.data()), len_(buffer.size()) {}

  Status ReadU8(uint8_t* out);
  Status ReadU16(uint16_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU32(uint32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadU64(uint64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI32(int32_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadI64(int64_t* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadFloat(float* out) { return ReadRaw(out, sizeof(*out)); }
  Status ReadDouble(double* out) { return ReadRaw(out, sizeof(*out)); }

  /// Reads `nbytes` (1..8) little-endian bytes into a uint64.
  Status ReadUintN(int nbytes, uint64_t* out);

  /// Reads a LEB128 varint.
  Status ReadVarint(uint64_t* out);

  Status ReadRaw(void* out, size_t len);

  /// Zero-copy ReadRaw: points `out` at the next `len` bytes of the
  /// underlying buffer (valid as long as that buffer is) and skips them.
  Status ReadSpan(size_t len, std::span<const uint8_t>* out) {
    if (len > remaining()) {
      return Status::CorruptedData("read past end of buffer");
    }
    *out = {data_ + pos_, len};
    pos_ += len;
    return Status::Ok();
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Appends `count` bits (values 0/1 packed MSB-first per byte are not
/// required here; we pack LSB-first) of 2-bit symbols: the layout of the
/// delta-binary "byte flag" stream (2 bits per key, §3.4), which
/// DeltaBinaryKeyCodec packs and unpacks in place. Tests keep this writer
/// as the reference encoder.
class TwoBitWriter {
 public:
  /// Appends a symbol in [0, 3].
  void Append(uint8_t symbol);

  /// Number of symbols appended so far.
  size_t size() const { return count_; }

  /// Serialized packed bytes (ceil(count/4) bytes).
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t count_ = 0;
};

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_BYTE_BUFFER_H_
