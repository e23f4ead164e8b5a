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

common::Result<std::vector<std::unique_ptr<compress::GradientCodec>>>
MakeCodecBank(const std::string& name, int lanes,
              const SketchMlConfig& config) {
  if (lanes <= 0) {
    return common::Status::InvalidArgument("lanes must be positive");
  }
  SKETCHML_ASSIGN_OR_RETURN(std::unique_ptr<compress::GradientCodec> proto,
                            MakeCodec(name, config));
  std::vector<std::unique_ptr<compress::GradientCodec>> bank;
  bank.reserve(lanes);
  for (int lane = 0; lane < lanes; ++lane) {
    bank.push_back(proto->Fork(static_cast<uint64_t>(lane)));
  }
  return bank;
}

std::vector<std::string> KnownCodecNames() {
  return {"adam-double", "adam-float",  "adam+key",    "adam+key+quan",
          "sketchml",    "zipml-8bit",  "zipml-16bit", "onebit",
          "qsgd",        "huffman",     "rle"};
}

}  // namespace sketchml::core
