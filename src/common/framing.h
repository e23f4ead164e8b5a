#ifndef SKETCHML_COMMON_FRAMING_H_
#define SKETCHML_COMMON_FRAMING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sketchml::common {

/// The repo's one checksummed message frame: an 8-byte header in front of
/// the payload so the receiver can *detect* wire corruption instead of
/// feeding garbage bytes to a codec.
///
/// Wire format (little-endian):
///   u32 length          payload byte count
///   u32 crc32(payload)  IEEE CRC-32 over the payload bytes
///   payload
///
/// The length field catches truncation and trailing garbage; the CRC
/// catches bit flips. `UnframeMessage` returns kCorruptedData on any
/// mismatch and never reads past the framed buffer. Three users share
/// it: `dist::DistributedTrainer` frames every gather message while a
/// FaultPlan is active, the "+crc" codec decorator
/// (`compress::ChecksummedCodec`) frames its inner codec's message, and
/// `dist::SealCheckpoint` frames checkpoint blobs.

/// Bytes the frame adds in front of the payload.
inline constexpr size_t kFrameHeaderBytes = 8;

/// Wraps `payload` in a length + CRC header. `out` is overwritten.
void FrameMessage(const std::vector<uint8_t>& payload,
                  std::vector<uint8_t>* out);

/// Validates and strips the frame header, writing the payload bytes into
/// `payload` (overwritten). Returns kCorruptedData when the buffer is
/// shorter than a header, the length disagrees with the buffer size, or
/// the CRC does not match.
Status UnframeMessage(const std::vector<uint8_t>& framed,
                      std::vector<uint8_t>* payload);

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_FRAMING_H_
