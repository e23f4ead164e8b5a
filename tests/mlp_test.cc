#include "ml/mlp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "ml/synthetic.h"

namespace sketchml::ml {
namespace {

namespace simd = common::simd;

/// The per-instance MLP that the batched kernels replaced, kept as the
/// bit-exact oracle: one instance at a time through every layer, the
/// gradient accumulated into a zeroed dense buffer.
class ReferenceMlp {
 public:
  explicit ReferenceMlp(const Mlp& mlp)
      : sizes_(mlp.layer_sizes()), params_(mlp.params()) {
    size_t offset = 0;
    for (size_t l = 0; l + 1 < sizes_.size(); ++l) {
      weight_offsets_.push_back(offset);
      offset += static_cast<size_t>(sizes_[l]) * sizes_[l + 1];
      bias_offsets_.push_back(offset);
      offset += sizes_[l + 1];
    }
  }

  double ComputeBatchGradient(const Dataset& data, size_t begin, size_t end,
                              common::SparseGradient* grad) const {
    const int layers = static_cast<int>(sizes_.size()) - 1;
    std::vector<double> flat(params_.size(), 0.0);
    double total_loss = 0.0;
    const double inv_batch = 1.0 / static_cast<double>(end - begin);
    for (size_t n = begin; n < end; ++n) {
      const Instance& x = data.instances()[n];
      const int label = static_cast<int>(x.label);
      std::vector<std::vector<double>> acts;
      std::vector<double> probs = Forward(x, &acts);
      total_loss += -std::log(std::max(probs[label], 1e-12));
      std::vector<double> delta = probs;
      delta[label] -= 1.0;
      for (int l = layers - 1; l >= 0; --l) {
        const int in = sizes_[l];
        const int out = sizes_[l + 1];
        const std::vector<double>& input = acts[l];
        double* gw = flat.data() + weight_offsets_[l];
        double* gb = flat.data() + bias_offsets_[l];
        for (int j = 0; j < out; ++j) gb[j] += delta[j] * inv_batch;
        for (int i = 0; i < in; ++i) {
          const double xi = input[i];
          if (xi == 0.0) continue;
          double* grow = gw + static_cast<size_t>(i) * out;
          for (int j = 0; j < out; ++j) grow[j] += xi * delta[j] * inv_batch;
        }
        if (l > 0) {
          const double* w = params_.data() + weight_offsets_[l];
          std::vector<double> prev_delta(in, 0.0);
          for (int i = 0; i < in; ++i) {
            if (acts[l][i] <= 0.0) continue;  // ReLU derivative.
            const double* row = w + static_cast<size_t>(i) * out;
            double sum = 0.0;
            for (int j = 0; j < out; ++j) sum += row[j] * delta[j];
            prev_delta[i] = sum;
          }
          delta = std::move(prev_delta);
        }
      }
    }
    grad->clear();
    for (size_t k = 0; k < flat.size(); ++k) {
      if (flat[k] != 0.0) grad->push_back({k, flat[k]});
    }
    return total_loss * inv_batch;
  }

  double ComputeMeanLoss(const Dataset& data) const {
    double total = 0.0;
    for (const auto& x : data.instances()) {
      const auto probs = Forward(x, nullptr);
      total += -std::log(std::max(probs[static_cast<int>(x.label)], 1e-12));
    }
    return total / static_cast<double>(data.size());
  }

  double ComputeAccuracy(const Dataset& data) const {
    size_t correct = 0;
    for (const auto& x : data.instances()) {
      const auto probs = Forward(x, nullptr);
      const int predicted = static_cast<int>(
          std::max_element(probs.begin(), probs.end()) - probs.begin());
      if (predicted == static_cast<int>(x.label)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
  }

 private:
  std::vector<double> Forward(const Instance& x,
                              std::vector<std::vector<double>>* acts) const {
    const int layers = static_cast<int>(sizes_.size()) - 1;
    std::vector<double> current(sizes_[0], 0.0);
    for (const auto& f : x.features) {
      if (f.index < current.size()) current[f.index] = f.value;
    }
    if (acts != nullptr) acts->push_back(current);
    for (int l = 0; l < layers; ++l) {
      const int in = sizes_[l];
      const int out = sizes_[l + 1];
      const double* w = params_.data() + weight_offsets_[l];
      const double* b = params_.data() + bias_offsets_[l];
      std::vector<double> next(b, b + out);
      for (int i = 0; i < in; ++i) {
        const double xi = current[i];
        if (xi == 0.0) continue;
        const double* row = w + static_cast<size_t>(i) * out;
        for (int j = 0; j < out; ++j) next[j] += xi * row[j];
      }
      if (l + 1 < layers) {
        for (double& v : next) v = std::max(0.0, v);  // ReLU.
      }
      current = std::move(next);
      if (acts != nullptr) acts->push_back(current);
    }
    const double max_logit = *std::max_element(current.begin(), current.end());
    double denom = 0.0;
    for (double& v : current) {
      v = std::exp(v - max_logit);
      denom += v;
    }
    for (double& v : current) v /= denom;
    return current;
  }

  std::vector<int> sizes_;
  std::vector<double> params_;
  std::vector<size_t> weight_offsets_;
  std::vector<size_t> bias_offsets_;
};

std::vector<simd::Level> CompiledLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::LevelSupported(simd::Level::kAvx2)) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

/// Pins the dispatch to one level for a scope.
class LevelGuard {
 public:
  explicit LevelGuard(simd::Level level) : saved_(simd::ActiveLevel()) {
    simd::SetActiveLevel(level);
  }
  ~LevelGuard() { simd::SetActiveLevel(saved_); }

 private:
  simd::Level saved_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const common::SparseGradient& a,
              const common::SparseGradient& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

/// Random instances for `input` features and `classes` labels, with the
/// edge cases the kernels must keep: an instance with no features,
/// -0.0 values, duplicate-free ascending indexes, one index past the
/// input layer (ignored), and feature `never` absent from every instance.
Dataset EdgeCaseData(size_t count, int input, int classes, int never,
                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> value(0.0f, 1.0f);
  std::vector<Instance> instances(count);
  for (size_t n = 0; n < count; ++n) {
    Instance& x = instances[n];
    x.label = static_cast<double>(rng() % classes);
    if (n == 1) continue;  // No features at all.
    for (int i = 0; i < input + 2; ++i) {
      if (i == never || rng() % 3 == 0) continue;
      const float v = rng() % 7 == 0 ? -0.0f : value(rng);
      x.features.push_back({static_cast<uint32_t>(i), v});
    }
  }
  return Dataset(std::move(instances), input);
}

/// Kills a third of each hidden layer's units for every instance (dead
/// ReLU rows) and puts +inf in the weight row of input `never`, whose
/// input is always zero.
void AddEdgeCaseParams(Mlp* mlp, int never) {
  const auto& sizes = mlp->layer_sizes();
  auto& params = mlp->mutable_params();
  params[static_cast<size_t>(never) * sizes[1]] =
      std::numeric_limits<double>::infinity();
  size_t offset = 0;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    offset += static_cast<size_t>(sizes[l]) * sizes[l + 1];  // Biases.
    if (l + 2 < sizes.size()) {
      for (int j = 0; j < sizes[l + 1]; j += 3) params[offset + j] = -1e6;
    }
    offset += sizes[l + 1];
  }
}

/// Batched gradient, batch loss, mean loss and accuracy equal the
/// per-instance oracle bit for bit at every compiled SIMD level, over a
/// few SGD steps.
void ExpectMatchesReference(const std::vector<int>& sizes,
                            const Dataset& data, Mlp* mlp) {
  const size_t total = data.size();
  // Batches: 1, 3, 7, 60 (the Fig 14 batch), 130 (three forward chunks)
  // and the ragged batch left at the end of the data.
  const std::vector<std::pair<size_t, size_t>> batches = {
      {0, 1},  {1, 4},   {4, 11},
      {11, 71}, {0, 130}, {total - total % 60, total}};
  for (int step = 0; step < 3; ++step) {
    const ReferenceMlp reference(*mlp);
    const double mean_loss = reference.ComputeMeanLoss(data);
    const double accuracy = reference.ComputeAccuracy(data);
    std::vector<common::SparseGradient> grads(batches.size());
    std::vector<double> losses(batches.size());
    for (size_t b = 0; b < batches.size(); ++b) {
      losses[b] = reference.ComputeBatchGradient(
          data, batches[b].first, batches[b].second, &grads[b]);
      for (const auto& pair : grads[b]) {
        ASSERT_TRUE(std::isfinite(pair.value)) << "key " << pair.key;
      }
    }
    for (simd::Level level : CompiledLevels()) {
      LevelGuard guard(level);
      SCOPED_TRACE(testing::Message()
                   << "level=" << simd::LevelName(level) << " net="
                   << testing::PrintToString(sizes) << " step=" << step);
      EXPECT_TRUE(SameBits(mlp->ComputeMeanLoss(data), mean_loss));
      EXPECT_TRUE(SameBits(mlp->ComputeAccuracy(data), accuracy));
      for (size_t b = 0; b < batches.size(); ++b) {
        common::SparseGradient grad;
        const double loss = mlp->ComputeBatchGradient(
            data, batches[b].first, batches[b].second, &grad);
        EXPECT_TRUE(SameBits(loss, losses[b])) << "batch " << b;
        EXPECT_TRUE(SameBits(grad, grads[b]))
            << "batch " << b << ": " << grad.size() << " vs "
            << grads[b].size() << " pairs";
      }
    }
    mlp->ApplySgd(grads[3], 0.05);
  }
}

TEST(MlpReferenceTest, Fig14NetMatchesPerInstanceOracle) {
  const std::vector<int> sizes = {400, 600, 600, 10};
  const int never = 37;
  std::vector<Instance> instances =
      GenerateSyntheticMnist(190, 20, 10, 41).instances();
  for (size_t n = 0; n < instances.size(); ++n) {
    auto& features = instances[n].features;
    std::erase_if(features, [&](const Feature& f) {
      return f.index == static_cast<uint32_t>(never) || f.index % 11 == n % 11;
    });
    if (n % 5 == 0 && !features.empty()) {
      features[n % features.size()].value = -0.0f;
    }
  }
  instances[2].features.clear();
  const Dataset data(std::move(instances), 400);
  Mlp mlp(sizes, 43);
  AddEdgeCaseParams(&mlp, never);
  ExpectMatchesReference(sizes, data, &mlp);
}

TEST(MlpReferenceTest, SmallNetsMatchPerInstanceOracle) {
  const std::vector<std::vector<int>> nets = {{16, 10, 3}, {3, 4, 2}, {5, 3}};
  for (const auto& sizes : nets) {
    const int never = sizes[0] - 1;
    const Dataset data =
        EdgeCaseData(157, sizes[0], sizes.back(), never, sizes[0] + 7);
    Mlp mlp(sizes, 51);
    AddEdgeCaseParams(&mlp, never);
    ExpectMatchesReference(sizes, data, &mlp);
  }
}

TEST(MlpTest, ParameterCountMatchesArchitecture) {
  Mlp mlp({4, 8, 3});
  EXPECT_EQ(mlp.NumParams(), 4u * 8 + 8 + 8u * 3 + 3);
}

TEST(MlpTest, ForwardProducesProbabilities) {
  Mlp mlp({10, 16, 4}, 5);
  Dataset data = GenerateSyntheticMnist(5, /*side=*/2, /*num_classes=*/4, 7);
  // side 2 => 4 pixels, but our net expects 10 inputs: indexes < 4 fit.
  const double loss = mlp.ComputeMeanLoss(data);
  EXPECT_GT(loss, 0.0);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  Mlp mlp({3, 4, 2}, 9);
  std::vector<Instance> instances(2);
  instances[0].features = {{0, 1.0f}, {2, -0.5f}};
  instances[0].label = 0;
  instances[1].features = {{1, 0.7f}};
  instances[1].label = 1;
  Dataset data(std::move(instances), 3);

  common::SparseGradient grad;
  mlp.ComputeBatchGradient(data, 0, 2, &grad);

  // Spot-check a handful of parameters against central differences.
  const double h = 1e-5;
  for (size_t probe : {0u, 5u, 11u, 17u, 20u}) {
    double analytic = 0.0;
    for (const auto& p : grad) {
      if (p.key == probe) analytic = p.value;
    }
    auto& params = mlp.mutable_params();
    const double original = params[probe];
    params[probe] = original + h;
    const double up = mlp.ComputeMeanLoss(data);
    params[probe] = original - h;
    const double down = mlp.ComputeMeanLoss(data);
    params[probe] = original;
    EXPECT_NEAR(analytic, (up - down) / (2 * h), 1e-4) << "param " << probe;
  }
}

TEST(MlpTest, TrainsOnSyntheticMnist) {
  Dataset data = GenerateSyntheticMnist(300, 10, 4, 21);
  Mlp mlp({100, 32, 4}, 23);
  const double initial_loss = mlp.ComputeMeanLoss(data);
  common::SparseGradient grad;
  for (int step = 0; step < 60; ++step) {
    const size_t begin = (step * 50) % 300;
    mlp.ComputeBatchGradient(data, begin, begin + 50, &grad);
    mlp.ApplySgd(grad, 0.05);
  }
  const double trained_loss = mlp.ComputeMeanLoss(data);
  EXPECT_LT(trained_loss, initial_loss * 0.6);
  EXPECT_GT(mlp.ComputeAccuracy(data), 0.6);
}

TEST(MlpTest, GradientKeysAreSortedAndDense) {
  Mlp mlp({16, 10, 3}, 31);  // Matches the 4x4 images below.
  Dataset data = GenerateSyntheticMnist(10, 4, 3, 33);
  common::SparseGradient grad;
  mlp.ComputeBatchGradient(data, 0, 10, &grad);
  EXPECT_TRUE(common::IsSortedByKey(grad));
  // Nearly all parameters receive gradient (dense NN gradients, §B.3);
  // only dead-ReLU rows can be missing.
  EXPECT_GT(grad.size(), mlp.NumParams() / 2);
}

TEST(MlpTest, RejectsTooFewLayers) {
  EXPECT_DEATH(Mlp({5}), "");
}

TEST(MlpTest, RejectsLabelsOutsideClasses) {
  // A +/-1 LibSVM label, one past the last class, and one past int.
  for (const double label : {-1.0, 3.0, 1e10}) {
    std::vector<Instance> instances(2);
    instances[0].features = {{0, 1.0f}};
    instances[1].features = {{1, 0.5f}};
    instances[1].label = label;
    const Dataset data(std::move(instances), 4);
    const Mlp mlp({4, 5, 3}, 3);
    EXPECT_DEATH(mlp.ComputeMeanLoss(data), "label");
    EXPECT_DEATH(mlp.ComputeAccuracy(data), "label");
    common::SparseGradient grad;
    EXPECT_DEATH(mlp.ComputeBatchGradient(data, 0, 2, &grad), "label");
  }
}

TEST(MlpTest, RejectsFractionalLabels) {
  for (const double label : {3.7, 3.0}) {
    std::vector<Instance> instances(2);
    instances[0].features = {{0, 1.0f}};
    instances[1].features = {{1, 0.5f}};
    instances[1].label = label;
    const Dataset data(std::move(instances), 4);
    const Mlp mlp({4, 5, 4}, 3);
    common::SparseGradient grad;
    if (label == 3.0) {
      EXPECT_GT(mlp.ComputeBatchGradient(data, 0, 2, &grad), 0.0);
      EXPECT_FALSE(grad.empty());
    } else {
      EXPECT_DEATH(mlp.ComputeBatchGradient(data, 0, 2, &grad), "label");
      EXPECT_DEATH(mlp.ComputeMeanLoss(data), "label");
    }
  }
}

// Every blob centre lies on the pixel grid [0, side - 1]^2, whatever the
// side. So at the pixel nearest one centre (at most half a pixel away on
// each axis) that blob adds at least exp(-0.5 / (2 * 2^2)), sigma being
// at least 2, and the other, at most (side - 1) away on each axis, at
// least exp(-2 (side - 1)^2 / (2 * 2^2)). Each class's mean image must
// peak above that sum, less a margin for the pixel noise. Centres drawn
// off the picture (as from the inverted range [4, side - 4)) fall short
// of it on the smallest images.
TEST(SyntheticMnistTest, BlobsStayInsideSmallImages) {
  constexpr int kClasses = 3;
  for (int side = 1; side <= 9; ++side) {
    SCOPED_TRACE(testing::Message() << "side=" << side);
    const Dataset data = GenerateSyntheticMnist(3000, side, kClasses, 7);
    std::vector<std::vector<double>> sums(kClasses,
                                          std::vector<double>(side * side));
    std::vector<int> counts(kClasses);
    for (const Instance& instance : data.instances()) {
      const int label = static_cast<int>(instance.label);
      ++counts[label];
      for (const auto& f : instance.features) sums[label][f.index] += f.value;
    }
    const double far = side - 1.0;
    const double floor =
        std::exp(-1.0 / 16) + std::exp(-far * far / 4) - 0.02;
    for (int c = 0; c < kClasses; ++c) {
      ASSERT_GT(counts[c], 0);
      const double peak = *std::max_element(sums[c].begin(), sums[c].end());
      EXPECT_GT(peak / counts[c], floor) << "class " << c;
    }
  }
}

TEST(MlpTest, ApplySgdRejectsKeysPastTheParameters) {
  Mlp mlp({4, 5, 3}, 3);
  const common::SparseGradient grad = {{0, 1.0}, {mlp.NumParams(), 1.0}};
  EXPECT_DEATH(mlp.ApplySgd(grad, 0.1), "gradient key");
}

}  // namespace
}  // namespace sketchml::ml
