#ifndef SKETCHML_COMMON_CRC32_H_
#define SKETCHML_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sketchml::common {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte buffer.
///
/// Gradient messages crossing a real network can arrive corrupted; the
/// message frame (`common::FrameMessage`) uses this to turn silent
/// corruption into a kCorruptedData status.
uint32_t Crc32(const void* data, size_t len);

inline uint32_t Crc32(const std::vector<uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_CRC32_H_
