#ifndef SKETCHML_CORE_CODEC_FACTORY_H_
#define SKETCHML_CORE_CODEC_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "compress/codec.h"
#include "core/sketchml_config.h"

namespace sketchml::core {

/// Builds a gradient codec by name. Known names:
///   "adam-double"   raw 12d-byte baseline (the paper's "Adam")
///   "adam-float"    raw with 4-byte float values
///   "adam+key"      delta-binary keys, raw values (Fig 8 stage 2)
///   "adam+key+quan" + quantile-bucket quantification (Fig 8 stage 3)
///   "sketchml"      full pipeline (Fig 8 stage 4)
///   "zipml-8bit" / "zipml-16bit"  uniform quantization baseline
///   "onebit"        threshold truncation baseline
///
/// `config` parameterizes the SketchML-family codecs and is ignored by the
/// baselines.
common::Result<std::unique_ptr<compress::GradientCodec>> MakeCodec(
    const std::string& name, const SketchMlConfig& config = SketchMlConfig());

/// All names `MakeCodec` accepts, in presentation order.
std::vector<std::string> KnownCodecNames();

}  // namespace sketchml::core

#endif  // SKETCHML_CORE_CODEC_FACTORY_H_
