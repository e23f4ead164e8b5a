#include "ml/csr_matrix.h"

namespace sketchml::ml {

CsrMatrix CsrMatrix::FromDataset(const Dataset& data) {
  CsrMatrix matrix;
  matrix.cols_ = data.dim();
  size_t total_nnz = 0;
  for (const auto& inst : data.instances()) {
    total_nnz += inst.features.size();
  }
  matrix.row_offsets_.reserve(data.size() + 1);
  matrix.indices_.reserve(total_nnz);
  matrix.values_.reserve(total_nnz);
  matrix.labels_.reserve(data.size());

  matrix.row_offsets_.push_back(0);
  for (const auto& inst : data.instances()) {
    for (const auto& f : inst.features) {
      matrix.indices_.push_back(f.index);
      matrix.values_.push_back(f.value);
    }
    matrix.row_offsets_.push_back(matrix.indices_.size());
    matrix.labels_.push_back(inst.label);
  }
  return matrix;
}

double CsrMatrix::RowDot(size_t row, const DenseVector& w) const {
  const RowView view = Row(row);
  double sum = 0.0;
  for (size_t i = 0; i < view.nnz; ++i) {
    sum += w[view.indices[i]] * static_cast<double>(view.values[i]);
  }
  return sum;
}

}  // namespace sketchml::ml
