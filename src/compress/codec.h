#ifndef SKETCHML_COMPRESS_CODEC_H_
#define SKETCHML_COMPRESS_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_buffer.h"
#include "common/metrics_registry.h"
#include "common/sparse.h"
#include "common/status.h"
#include "sketch/sketch_histogram.h"

namespace sketchml::common {
class ThreadPool;
}  // namespace sketchml::common

namespace sketchml::compress {

/// A serialized gradient message as it would travel over the network.
struct EncodedGradient {
  std::vector<uint8_t> bytes;

  size_t size() const { return bytes.size(); }
};

/// Interface for gradient compression schemes.
///
/// A codec turns a sparse gradient (key-value pairs sorted by key) into a
/// byte message and back. Keys must round-trip exactly — decoding a wrong
/// dimension corrupts the model (§3.4 Motivation) — while values may be
/// lossy, trading precision for bytes.
///
/// `Encode`/`Decode` are non-virtual wrappers (NVI): they validate the
/// shared precondition and, when observability is on, record per-codec
/// labeled counters ("codec/encode_bytes{codec=<name>}", plus any labels
/// attached with `SetMetricLabel`, e.g. worker=3 on per-worker forks),
/// the "codec/encode_ns"/"codec/decode_ns" latency sketches and trace
/// spans around the virtual `EncodeImpl`/`DecodeImpl` that
/// implementations provide. The latency sketches carry the codec label
/// only, so every fork of a codec records into one slot. With
/// observability off the wrappers cost one branch.
class GradientCodec {
 public:
  virtual ~GradientCodec() = default;

  /// Human-readable codec name (e.g. "sketchml", "zipml-16bit").
  virtual std::string Name() const = 0;

  /// True when `Decode(Encode(g)) == g` bit-exactly.
  virtual bool IsLossless() const = 0;

  /// Serializes `grad` into `out`. `grad` must be sorted by key with
  /// strictly increasing keys; returns InvalidArgument otherwise.
  [[nodiscard]] common::Status Encode(const common::SparseGradient& grad,
                                      EncodedGradient* out);

  /// Reconstructs a gradient from `in`. Keys are exact; values are exact
  /// iff `IsLossless()`.
  ///
  /// Hardening contract: `in` may be arbitrary bytes off the wire
  /// (truncated, bit-flipped, pure garbage). Implementations must bounds-
  /// check every read and validate declared counts *before* allocating,
  /// returning a non-OK Status (typically kCorruptedData) on malformed
  /// input — never crashing, hanging, or attempting huge allocations.
  /// Undetectably corrupted input may decode to wrong values; wrap
  /// messages in the `common::FrameMessage` CRC frame (the "+crc"
  /// ChecksummedCodec, or the trainer's fault path) when detection is
  /// required. A message that passes its frame check but fails Decode is
  /// a codec fault, not wire damage: the trainer fails the batch with
  /// this status instead of retrying. Pinned by tests/fuzz_decode_test.cc
  /// for every registered codec.
  [[nodiscard]] common::Status Decode(const EncodedGradient& in,
                                      common::SparseGradient* out);

  /// Returns an independent codec instance for seed lane `lane`, suitable
  /// for concurrent use next to `this` (the trainer forks one per
  /// simulated worker). Seeded codecs derive the lane's seed with
  /// `common::LaneSeed`, so a fork's message stream is deterministic and
  /// never depends on how calls interleave across lanes. Stateless codecs
  /// return a plain copy; decorators fork their inner codec. Never null.
  virtual std::unique_ptr<GradientCodec> Fork(uint64_t lane) const = 0;

  /// Serializes this instance's mutable stream state (RNG lane position,
  /// error-feedback residuals, call counters — whatever makes the *next*
  /// Encode depend on history) into `writer`. Stateless codecs write
  /// nothing. Together with `RestoreState` this is the checkpoint seam:
  /// restoring a saved state into an identically-configured instance
  /// makes it emit the same byte stream the original would have from the
  /// save point. Configuration (seed, levels, inner codec shape) is NOT
  /// captured — the caller reconstructs the codec and replays state into
  /// it, mirroring how KllSketch::Deserialize takes the seed externally.
  virtual void SaveState(common::ByteWriter* writer) const { (void)writer; }

  /// Restores state written by `SaveState` on an identically-configured
  /// instance. Input may be arbitrary bytes off a corrupted checkpoint:
  /// implementations must bounds-check and return kCorruptedData rather
  /// than crash, leaving the instance usable (fresh-equivalent) on error.
  [[nodiscard]] virtual common::Status RestoreState(
      common::ByteReader* reader) {
    (void)reader;
    return common::Status::Ok();
  }

  /// Offers a thread pool for intra-message parallelism (e.g. encoding
  /// sign streams concurrently). Optional: the default ignores it, and a
  /// codec must produce byte-identical output with or without a pool.
  /// The pool must outlive the codec or be cleared with nullptr.
  virtual void SetThreadPool(common::ThreadPool* pool) { (void)pool; }

  /// Attaches an extra metric label to this instance's "codec/..."
  /// counters (the trainer tags each per-worker fork with worker=<w>).
  /// Re-setting an existing key overwrites its value. Labels affect
  /// metric identity only, never the byte stream. Calls after the first
  /// instrumented Encode/Decode re-resolve the handles.
  void SetMetricLabel(std::string_view key, std::string_view value);

  /// Labels attached via SetMetricLabel (not including the implicit
  /// codec=<Name()> label).
  const obs::MetricLabels& metric_labels() const { return metric_labels_; }

 protected:
  /// The actual codec work. Input is already validated (strictly
  /// increasing keys); implementations must not re-enter their own
  /// public Encode/Decode (calling *another* codec's, as the decorator
  /// codecs do, is fine and yields nested spans).
  virtual common::Status EncodeImpl(const common::SparseGradient& grad,
                                    EncodedGradient* out) = 0;
  virtual common::Status DecodeImpl(const EncodedGradient& in,
                                    common::SparseGradient* out) = 0;

 private:
  /// Per-instance cache of the codec's metric handles and span names,
  /// filled lazily on the first instrumented call (so the Name() virtual
  /// is safe to use — the object is fully constructed by then).
  struct Instruments {
    bool initialized = false;
    std::string encode_span_name;  // "encode/<name>"
    std::string decode_span_name;  // "decode/<name>"
    obs::Counter encode_calls, encode_pairs, encode_bytes, raw_bytes,
        encode_errors;
    obs::Counter decode_calls, decode_pairs, decode_bytes, decode_errors;
    obs::SketchHistogram encode_ns, decode_ns;  // {codec=<name>} only.
  };

  Instruments& GetInstruments();
  Instruments instruments_;
  obs::MetricLabels metric_labels_;
};

/// Validates the shared Encode precondition; used by all implementations.
[[nodiscard]] common::Status ValidateEncodable(
    const common::SparseGradient& grad);

}  // namespace sketchml::compress

#endif  // SKETCHML_COMPRESS_CODEC_H_
