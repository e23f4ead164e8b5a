#include "core/sketchml_config.h"

#include <string>

#include "sketch/kll_sketch.h"

namespace sketchml::core {

common::Status SketchMlConfig::Validate() const {
  if (num_buckets < 2 || num_buckets > 256) {
    return common::Status::InvalidArgument("num_buckets must be in [2, 256]");
  }
  if (num_groups < 1 || num_groups > num_buckets) {
    return common::Status::InvalidArgument(
        "num_groups must be in [1, num_buckets]");
  }
  if (rows < 1 || rows > 16) {
    return common::Status::InvalidArgument("rows must be in [1, 16]");
  }
  if (col_ratio <= 0.0 || col_ratio > 4.0) {
    return common::Status::InvalidArgument("col_ratio must be in (0, 4]");
  }
  if (min_cols < 1) {
    return common::Status::InvalidArgument("min_cols must be positive");
  }
  if (quantile_sketch_k < sketch::KllSketch::kMinK ||
      quantile_sketch_k > sketch::KllSketch::kMaxK) {
    return common::Status::InvalidArgument(
        "quantile_sketch_k must be in [" +
        std::to_string(sketch::KllSketch::kMinK) + ", " +
        std::to_string(sketch::KllSketch::kMaxK) + "]");
  }
  return common::Status::Ok();
}

}  // namespace sketchml::core
