#ifndef SKETCHML_ML_DATASET_H_
#define SKETCHML_ML_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ml/types.h"

namespace sketchml::ml {

/// An in-memory sparse dataset: instances plus the model dimensionality.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::vector<Instance> instances, uint64_t dim)
      : instances_(std::move(instances)), dim_(dim) {}

  const std::vector<Instance>& instances() const { return instances_; }
  uint64_t dim() const { return dim_; }
  size_t size() const { return instances_.size(); }

  /// Average nonzero features per instance.
  double AvgNnz() const;

  /// Splits off the last `fraction` of instances as a test set (the
  /// paper's 75 / 25 protocol). Returns {train, test}.
  std::pair<Dataset, Dataset> Split(double test_fraction) const;

 private:
  std::vector<Instance> instances_;
  uint64_t dim_ = 0;
};

/// Parses a LIBSVM/SVMLight-format file ("label idx:val idx:val ...",
/// 1-based or 0-based indices autodetected as-is; indices are used
/// verbatim). Labels {0, 1} are mapped to {-1, +1}.
common::Result<Dataset> ReadLibSvmFile(const std::string& path);

/// Parses LIBSVM-format text from a string (for tests).
common::Result<Dataset> ParseLibSvm(const std::string& text);

/// Writes `data` in LIBSVM format ("label idx:val ..."), one instance
/// per line. Inverse of ReadLibSvmFile up to float formatting.
common::Status WriteLibSvmFile(const Dataset& data, const std::string& path);

}  // namespace sketchml::ml

#endif  // SKETCHML_ML_DATASET_H_
