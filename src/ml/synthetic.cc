#include "ml/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/logging.h"

namespace sketchml::ml {

Dataset GenerateSynthetic(const SyntheticConfig& config) {
  SKETCHML_CHECK_GT(config.num_instances, 0u);
  SKETCHML_CHECK_GT(config.dim, 0u);
  common::Rng rng(config.seed);
  common::ZipfSampler zipf(config.dim, config.zipf_alpha);

  // Sparse ground-truth model: popular features get weights so that the
  // signal is actually learnable from few nonzeros. A random permutation
  // maps Zipf rank -> feature id so "hot" ids are scattered over [0, D),
  // like hashed features in real CTR data.
  // Using a multiplicative shuffle keeps memory O(1).
  const uint64_t a = 0x9E3779B97F4A7C15ULL | 1;  // Odd => invertible mod 2^64.
  auto rank_to_feature = [&](uint64_t rank) {
    return (rank * a + 0x1234567) % config.dim;
  };

  const uint64_t truth_size = std::min<uint64_t>(config.dim, 4096);
  std::vector<double> truth(truth_size);
  for (auto& w : truth) w = rng.NextGaussian();

  std::vector<Instance> instances;
  instances.reserve(config.num_instances);
  for (uint64_t i = 0; i < config.num_instances; ++i) {
    Instance inst;
    // Poisson-ish nonzero count around avg_nnz (at least 1).
    const int nnz = std::max<int>(
        1, static_cast<int>(config.avg_nnz * (0.5 + rng.NextDouble())));
    std::set<uint32_t> indices;
    double signal = 0.0;
    while (static_cast<int>(indices.size()) < nnz) {
      const uint64_t rank = zipf.Sample(rng);
      const uint32_t feature =
          static_cast<uint32_t>(rank_to_feature(rank));
      if (!indices.insert(feature).second) continue;
      const double value = 1.0;  // Binary features, as in CTR data.
      if (rank < truth_size) signal += truth[rank] * value;
      inst.features.push_back({feature, static_cast<float>(value)});
    }
    std::sort(inst.features.begin(), inst.features.end(),
              [](const Feature& x, const Feature& y) {
                return x.index < y.index;
              });

    if (config.regression) {
      inst.label = signal + rng.NextGaussian() * config.label_noise;
    } else {
      double margin = signal;
      if (rng.NextBernoulli(config.label_noise)) margin = -margin;
      inst.label = margin >= 0 ? 1.0 : -1.0;
    }
    instances.push_back(std::move(inst));
  }
  return Dataset(std::move(instances), config.dim);
}

SyntheticConfig PresetFor(const std::string& name, uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // The presets scale Table 1 down while preserving each dataset's
  // *gradient density* regime: the paper's per-executor gradients carry
  // d/D ≈ 10 % nonzeros at batch ratio 0.1 (Figure 8(d)), which is what
  // makes delta keys ~1.27 bytes and amortizes the 8q-byte bucket means.
  if (name == "kdd10") {
    config.num_instances = 40000;
    config.dim = 1 << 16;
    config.avg_nnz = 60;
    config.zipf_alpha = 1.05;
  } else if (name == "kdd12") {
    config.num_instances = 60000;
    config.dim = 1 << 17;
    config.avg_nnz = 40;
    config.zipf_alpha = 1.1;
  } else if (name == "ctr") {
    config.num_instances = 40000;
    config.dim = 1 << 15;
    config.avg_nnz = 150;  // CTR is denser (paper §4.3.2).
    config.zipf_alpha = 1.0;
  }
  return config;
}

Dataset GenerateSyntheticMnist(uint64_t num_instances, int side,
                               int num_classes, uint64_t seed) {
  common::Rng rng(seed);
  const int pixels = side * side;
  // Class templates: smooth random blobs.
  std::vector<std::vector<double>> templates(num_classes,
                                             std::vector<double>(pixels));
  for (auto& tmpl : templates) {
    // Two random Gaussian blobs per class.
    for (int blob = 0; blob < 2; ++blob) {
      // A 4-pixel margin where the image is wide enough (side >= 9); a
      // smaller one shrinks it, so every centre stays on the pixel grid.
      const double lo = std::min(4.0, 0.5 * (side - 1));
      const double hi = std::max(lo, side - 4.0);
      const double cx = rng.NextUniform(lo, hi);
      const double cy = rng.NextUniform(lo, hi);
      const double sigma = rng.NextUniform(2.0, 4.0);
      for (int y = 0; y < side; ++y) {
        for (int x = 0; x < side; ++x) {
          const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
          tmpl[y * side + x] += std::exp(-d2 / (2 * sigma * sigma));
        }
      }
    }
  }

  std::vector<Instance> instances;
  instances.reserve(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    const int cls = static_cast<int>(rng.NextBounded(num_classes));
    Instance inst;
    inst.label = cls;
    inst.features.reserve(pixels);
    for (int p = 0; p < pixels; ++p) {
      const double v = templates[cls][p] + rng.NextGaussian() * 0.15;
      if (std::abs(v) > 1e-3) {
        inst.features.push_back(
            {static_cast<uint32_t>(p), static_cast<float>(v)});
      }
    }
    instances.push_back(std::move(inst));
  }
  return Dataset(std::move(instances), static_cast<uint64_t>(pixels));
}

}  // namespace sketchml::ml
