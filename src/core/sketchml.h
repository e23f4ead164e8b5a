#ifndef SKETCHML_CORE_SKETCHML_H_
#define SKETCHML_CORE_SKETCHML_H_

/// \file
/// Umbrella header for the SketchML library public API.
///
/// Quick start:
/// \code
///   #include "core/sketchml.h"
///
///   sketchml::core::SketchMlConfig cfg;          // paper defaults
///   sketchml::core::SketchMlCodec codec(cfg);
///   sketchml::compress::EncodedGradient msg;
///   codec.Encode(gradient, &msg);                // sorted key-value pairs
///   codec.Decode(msg, &restored);                // exact keys, ~values
/// \endcode

#include "common/sparse.h"
#include "common/status.h"
#include "compress/checksummed_codec.h"
#include "compress/codec.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/lossless.h"
#include "compress/one_bit_codec.h"
#include "compress/qsgd_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "compress/raw_codec.h"
#include "compress/zipml_codec.h"
#include "core/codec_factory.h"
#include "core/sketchml_codec.h"
#include "core/sketchml_config.h"
#include "sketch/count_min_sketch.h"
#include "sketch/grouped_min_max_sketch.h"
#include "sketch/kll_sketch.h"
#include "sketch/min_max_sketch.h"

#endif  // SKETCHML_CORE_SKETCHML_H_
