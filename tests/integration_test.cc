// Cross-module integration tests: the full public API surface working
// together — real gradients from the ML stack, through every codec's
// wire format, decoded by *fresh* codec instances (the messages must be
// fully self-describing, as they would be on a different machine), and
// the end-to-end trainer loop with checksummed transport.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/sketchml.h"
#include "dist/trainer.h"
#include "ml/gradient.h"
#include "ml/mlp.h"
#include "ml/synthetic.h"

namespace sketchml {
namespace {

TEST(IntegrationTest, RealGradientThroughEveryCodecWithFreshDecoder) {
  ml::SyntheticConfig config;
  config.num_instances = 2000;
  config.dim = 1 << 16;
  config.avg_nnz = 50;
  config.seed = 61;
  const ml::Dataset data = ml::GenerateSynthetic(config);
  auto loss = ml::MakeLoss("lr");
  ml::DenseVector w(data.dim(), 0.0);
  const auto grad = ml::ComputeBatchGradient(*loss, w, data, 0, 500, 0.01);
  ASSERT_GT(grad.size(), 1000u);

  for (const auto& name : core::KnownCodecNames()) {
    // Encode with one instance...
    auto encoder = std::move(core::MakeCodec(name)).value();
    compress::EncodedGradient msg;
    ASSERT_TRUE(encoder->Encode(grad, &msg).ok()) << name;
    // ...decode with a brand-new instance: the wire format must be
    // self-describing (seeds, shapes, splits all serialized).
    auto decoder = std::move(core::MakeCodec(name)).value();
    common::SparseGradient decoded;
    ASSERT_TRUE(decoder->Decode(msg, &decoded).ok()) << name;
    ASSERT_EQ(decoded.size(), grad.size()) << name;
    for (size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(decoded[i].key, grad[i].key) << name << " at " << i;
    }
  }
}

TEST(IntegrationTest, EncodeCallsProduceIndependentlyDecodableMessages) {
  // SketchML's per-message seeds must not leak state between messages:
  // decode them out of order with a fresh codec.
  core::SketchMlCodec encoder;
  ml::SyntheticConfig config;
  config.num_instances = 1000;
  config.dim = 1 << 14;
  config.seed = 67;
  const ml::Dataset data = ml::GenerateSynthetic(config);
  auto loss = ml::MakeLoss("svm");
  ml::DenseVector w(data.dim(), 0.01);

  std::vector<common::SparseGradient> grads;
  std::vector<compress::EncodedGradient> msgs(3);
  for (int i = 0; i < 3; ++i) {
    grads.push_back(ml::ComputeBatchGradient(*loss, w, data,
                                             i * 300, (i + 1) * 300, 0.01));
    ASSERT_TRUE(encoder.Encode(grads[i], &msgs[i]).ok());
  }
  core::SketchMlCodec decoder;
  for (int i = 2; i >= 0; --i) {
    common::SparseGradient decoded;
    ASSERT_TRUE(decoder.Decode(msgs[i], &decoded).ok());
    ASSERT_EQ(decoded.size(), grads[i].size());
  }
}

TEST(IntegrationTest, ChecksummedSketchMlEndToEndTraining) {
  ml::SyntheticConfig config;
  config.num_instances = 1500;
  config.dim = 1 << 13;
  config.seed = 71;
  ml::Dataset all = ml::GenerateSynthetic(config);
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss("lr");

  auto codec = std::make_unique<compress::ChecksummedCodec>(
      std::move(core::MakeCodec("sketchml")).value());
  dist::ClusterConfig cluster;
  cluster.num_workers = 3;
  dist::TrainerConfig trainer_config;
  trainer_config.learning_rate = 0.05;
  trainer_config.adam_epsilon = 0.01;
  dist::DistributedTrainer trainer(&train, &test, loss.get(),
                                   std::move(codec), cluster,
                                   trainer_config);
  auto stats = trainer.Run(4);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->back().train_loss, stats->front().train_loss * 1.05);
  EXPECT_LT(stats->back().train_loss, 0.8);
}

TEST(IntegrationTest, MlpGradientsThroughSketchMl) {
  // The Appendix B.3 path end to end at test scale.
  ml::Dataset data = ml::GenerateSyntheticMnist(400, 8, 4, 79);
  ml::Mlp mlp({64, 24, 4}, 83);
  core::SketchMlCodec codec;
  common::SparseGradient grad, decoded;
  compress::EncodedGradient msg;
  const double initial = mlp.ComputeMeanLoss(data);
  for (int step = 0; step < 40; ++step) {
    const size_t begin = (step * 50) % 350;
    mlp.ComputeBatchGradient(data, begin, begin + 50, &grad);
    ASSERT_TRUE(codec.Encode(grad, &msg).ok());
    ASSERT_TRUE(codec.Decode(msg, &decoded).ok());
    mlp.ApplySgd(decoded, 0.05);
  }
  EXPECT_LT(mlp.ComputeMeanLoss(data), initial * 0.8);
}

}  // namespace
}  // namespace sketchml
