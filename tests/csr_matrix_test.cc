#include "ml/csr_matrix.h"

#include <gtest/gtest.h>

#include "ml/gradient.h"
#include "ml/synthetic.h"

namespace sketchml::ml {
namespace {

Dataset SmallDataset() {
  std::vector<Instance> instances(3);
  instances[0].features = {{0, 1.0f}, {3, 2.0f}};
  instances[0].label = 1.0;
  instances[1].features = {};  // Empty row.
  instances[1].label = -1.0;
  instances[2].features = {{1, 0.5f}, {2, -1.0f}, {4, 4.0f}};
  instances[2].label = 1.0;
  return Dataset(std::move(instances), 5);
}

TEST(CsrMatrixTest, LayoutMatchesDataset) {
  const Dataset data = SmallDataset();
  const CsrMatrix matrix = CsrMatrix::FromDataset(data);
  EXPECT_EQ(matrix.rows(), 3u);
  EXPECT_EQ(matrix.cols(), 5u);
  EXPECT_EQ(matrix.nnz(), 5u);
  EXPECT_DOUBLE_EQ(matrix.label(1), -1.0);

  const auto row0 = matrix.Row(0);
  ASSERT_EQ(row0.nnz, 2u);
  EXPECT_EQ(row0.indices[0], 0u);
  EXPECT_EQ(row0.indices[1], 3u);
  EXPECT_FLOAT_EQ(row0.values[1], 2.0f);

  const auto row1 = matrix.Row(1);
  EXPECT_EQ(row1.nnz, 0u);

  const auto row2 = matrix.Row(2);
  ASSERT_EQ(row2.nnz, 3u);
  EXPECT_EQ(row2.indices[2], 4u);
}

TEST(CsrMatrixTest, RowDotMatchesAosDot) {
  SyntheticConfig config;
  config.num_instances = 500;
  config.dim = 1 << 12;
  config.seed = 37;
  const Dataset data = GenerateSynthetic(config);
  const CsrMatrix matrix = CsrMatrix::FromDataset(data);

  common::Rng rng(41);
  DenseVector w(data.dim());
  for (auto& x : w) x = rng.NextGaussian();
  for (size_t i = 0; i < data.size(); i += 17) {
    EXPECT_DOUBLE_EQ(matrix.RowDot(i, w), Dot(w, data.instances()[i]));
  }
}

TEST(CsrMatrixTest, GradientMatchesAosGradient) {
  SyntheticConfig config;
  config.num_instances = 1000;
  config.dim = 1 << 13;
  config.seed = 43;
  const Dataset data = GenerateSynthetic(config);
  const CsrMatrix matrix = CsrMatrix::FromDataset(data);
  LogisticLoss loss;
  common::Rng rng(47);
  DenseVector w(data.dim());
  for (auto& x : w) x = rng.NextGaussian() * 0.1;

  // Same adds in the same order into the same accumulator: exact.
  EXPECT_EQ(ComputeBatchGradient(loss, w, data, 100, 400, 0.01),
            ComputeBatchGradientCsr(loss, w, matrix, 100, 400, 0.01));
}

TEST(CsrMatrixTest, MemoryIsLeanerThanAos) {
  SyntheticConfig config;
  config.num_instances = 2000;
  config.dim = 1 << 14;
  const Dataset data = GenerateSynthetic(config);
  const CsrMatrix matrix = CsrMatrix::FromDataset(data);
  // AoS cost: per-feature 8 bytes + per-instance vector header (24) +
  // label; CSR trims the per-instance overhead.
  size_t aos_bytes = 0;
  for (const auto& inst : data.instances()) {
    aos_bytes += inst.features.size() * sizeof(Feature) +
                 sizeof(std::vector<Feature>) + sizeof(double);
  }
  EXPECT_LT(matrix.MemoryBytes(), aos_bytes);
  EXPECT_EQ(matrix.nnz(),
            static_cast<size_t>(data.AvgNnz() * data.size() + 0.5));
}

TEST(CsrMatrixTest, EmptyDataset) {
  const Dataset data({}, 10);
  const CsrMatrix matrix = CsrMatrix::FromDataset(data);
  EXPECT_EQ(matrix.rows(), 0u);
  EXPECT_EQ(matrix.nnz(), 0u);
}

}  // namespace
}  // namespace sketchml::ml
