#ifndef SKETCHML_CORE_SKETCHML_CONFIG_H_
#define SKETCHML_CORE_SKETCHML_CONFIG_H_

#include <cstdint>

#include "common/status.h"

namespace sketchml::core {

/// Hyper-parameters of the SketchML compression framework (§2.1, §4.1).
///
/// Defaults follow the paper: q = 256 quantile buckets (one-byte indexes,
/// §3.2), quantile sketch size 128 (§4.1), MinMaxSketch of 2 rows by d/5
/// columns (§4.1: "the size of MinMaxSketch is 2 x d/5"), and r = 8
/// bucket groups (§3.3 Solution 2 example).
struct SketchMlConfig {
  /// Number of quantile buckets per sign (paper's q). Must be in [2, 256]
  /// so a bucket index fits one byte.
  int num_buckets = 256;

  /// Number of MinMaxSketch groups (paper's r). Must divide into
  /// num_buckets sensibly: 1 <= num_groups <= num_buckets.
  int num_groups = 8;

  /// Hash tables per MinMaxSketch (paper's s).
  int rows = 2;

  /// Columns as a fraction of the number of nonzero values d (paper's
  /// t = d * col_ratio; default d/5).
  double col_ratio = 0.2;

  /// Minimum total columns, so tiny gradients still get a usable table.
  int min_cols = 16;

  /// Size parameter of the KLL quantile sketch (paper: 128 by default), in
  /// [sketch::KllSketch::kMinK, sketch::KllSketch::kMaxK].
  int quantile_sketch_k = 128;

  /// Separate positive/negative quantization (§3.3 Solution 1). Disabling
  /// reproduces the "reversed gradient" failure for ablation.
  bool separate_signs = true;

  /// Base seed for sketch hash functions and the quantile sketch.
  uint64_t seed = 1;

  /// Verifies ranges; returns InvalidArgument with a description if bad.
  common::Status Validate() const;
};

}  // namespace sketchml::core

#endif  // SKETCHML_CORE_SKETCHML_CONFIG_H_
