#include "core/codec_factory.h"

#include "compress/lossless.h"
#include "compress/one_bit_codec.h"
#include "compress/qsgd_codec.h"
#include "compress/raw_codec.h"
#include "compress/zipml_codec.h"
#include "core/sketchml_codec.h"

namespace sketchml::core {

common::Result<std::unique_ptr<compress::GradientCodec>> MakeCodec(
    const std::string& name, const SketchMlConfig& config) {
  using compress::GradientCodec;
  if (name == "adam-double") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::RawCodec>(compress::ValueType::kDouble));
  }
  if (name == "adam-float") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::RawCodec>(compress::ValueType::kFloat));
  }
  if (name == "adam+key") {
    return std::unique_ptr<GradientCodec>(std::make_unique<KeyOnlyCodec>());
  }
  if (name == "adam+key+quan") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<QuantileOnlyCodec>(config));
  }
  if (name == "sketchml") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<SketchMlCodec>(config));
  }
  if (name == "zipml-8bit") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::ZipMlCodec>(8, config.seed + 17));
  }
  if (name == "zipml-16bit") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::ZipMlCodec>(16, config.seed + 17));
  }
  if (name == "onebit") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::OneBitCodec>());
  }
  if (name == "qsgd") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::QsgdCodec>(255, config.seed + 19));
  }
  if (name == "huffman") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::HuffmanGradientCodec>("huffman"));
  }
  if (name == "rle") {
    return std::unique_ptr<GradientCodec>(
        std::make_unique<compress::RleGradientCodec>("rle"));
  }
  return common::Status::NotFound("unknown codec: " + name);
}

std::vector<std::string> KnownCodecNames() {
  return {"adam-double", "adam-float",  "adam+key",    "adam+key+quan",
          "sketchml",    "zipml-8bit",  "zipml-16bit", "onebit",
          "qsgd",        "huffman",     "rle"};
}

}  // namespace sketchml::core
