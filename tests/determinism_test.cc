// Reproducibility guarantees: with fixed seeds, every byte and every
// loss value is identical run to run — the property that makes the
// bench harness's results regenerable.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/sketchml.h"
#include "dist/trainer.h"
#include "ml/synthetic.h"

namespace sketchml {
namespace {

TEST(DeterminismTest, CodecBytesAreIdenticalAcrossInstances) {
  common::SparseGradient grad;
  common::Rng rng(443);
  uint64_t key = 0;
  for (int i = 0; i < 2000; ++i) {
    key += 1 + rng.NextBounded(30);
    grad.push_back({key, rng.NextGaussian() * 0.05});
  }
  for (const auto& name : core::KnownCodecNames()) {
    auto a = std::move(core::MakeCodec(name)).value();
    auto b = std::move(core::MakeCodec(name)).value();
    compress::EncodedGradient msg_a, msg_b;
    ASSERT_TRUE(a->Encode(grad, &msg_a).ok()) << name;
    ASSERT_TRUE(b->Encode(grad, &msg_b).ok()) << name;
    EXPECT_EQ(msg_a.bytes, msg_b.bytes) << name;
  }
}

TEST(DeterminismTest, SuccessiveEncodesDifferOnlyWhereSeeded) {
  // SketchML reseeds its hash functions per message (deterministically),
  // so encoding the same gradient twice from one instance gives two
  // different-but-valid messages; a fresh instance replays the sequence.
  common::SparseGradient grad;
  common::Rng rng(449);
  uint64_t key = 0;
  for (int i = 0; i < 1000; ++i) {
    key += 1 + rng.NextBounded(30);
    grad.push_back({key, rng.NextGaussian() * 0.05});
  }
  core::SketchMlCodec first, second;
  compress::EncodedGradient f1, f2, s1, s2;
  ASSERT_TRUE(first.Encode(grad, &f1).ok());
  ASSERT_TRUE(first.Encode(grad, &f2).ok());
  ASSERT_TRUE(second.Encode(grad, &s1).ok());
  ASSERT_TRUE(second.Encode(grad, &s2).ok());
  EXPECT_NE(f1.bytes, f2.bytes);  // Per-message reseeding.
  EXPECT_EQ(f1.bytes, s1.bytes);  // Replayable sequence.
  EXPECT_EQ(f2.bytes, s2.bytes);
}

TEST(DeterminismTest, TrainerBytesAndLossesReplay) {
  ml::SyntheticConfig config;
  config.num_instances = 1200;
  config.dim = 1 << 13;
  config.seed = 457;
  ml::Dataset all = ml::GenerateSynthetic(config);
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss("lr");

  auto run = [&](int epochs) {
    dist::ClusterConfig cluster;
    cluster.num_workers = 3;
    dist::TrainerConfig trainer_config;
    trainer_config.learning_rate = 0.05;
    trainer_config.adam_epsilon = 0.01;
    dist::DistributedTrainer trainer(
        &train, &test, loss.get(),
        std::move(core::MakeCodec("sketchml")).value(), cluster,
        trainer_config);
    auto stats = trainer.Run(epochs);
    EXPECT_TRUE(stats.ok());
    return std::move(stats).value();
  };
  const auto a = run(3);
  const auto b = run(3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    // Bytes and losses are exactly deterministic; only measured CPU
    // seconds vary between runs.
    EXPECT_EQ(a[e].bytes_up, b[e].bytes_up);
    EXPECT_EQ(a[e].bytes_down, b[e].bytes_down);
    EXPECT_DOUBLE_EQ(a[e].train_loss, b[e].train_loss);
    EXPECT_DOUBLE_EQ(a[e].test_loss, b[e].test_loss);
  }
}

TEST(DeterminismTest, SerialAndParallelEpochsAreBitIdentical) {
  // The same config run with threads=1 and threads=8 must produce
  // byte-identical messages and identical modeled costs and losses:
  // every worker owns a forked codec seed lane, the driver reduces in
  // fixed worker order, and the pipelined broadcast folds in batch order,
  // so thread count can only change wall-clock.
  ml::SyntheticConfig config;
  config.num_instances = 1500;
  config.dim = 1 << 13;
  config.seed = 461;
  ml::Dataset all = ml::GenerateSynthetic(config);
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss("lr");

  auto run = [&](const std::string& codec, int threads,
                 const dist::ClusterConfig& cluster) {
    dist::TrainerConfig trainer_config;
    trainer_config.learning_rate = 0.05;
    trainer_config.adam_epsilon = 0.01;
    trainer_config.num_threads = threads;
    dist::DistributedTrainer trainer(&train, &test, loss.get(),
                                     std::move(core::MakeCodec(codec)).value(),
                                     cluster, trainer_config);
    auto stats = trainer.Run(3);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return std::move(stats).value();
  };
  // Bytes, message counts, modeled network costs, churn and rollback
  // counts, and losses are exact; only measured CPU seconds may differ.
  // Returns the serial run for the caller's coverage checks.
  const auto expect_thread_invariant = [&](const std::string& codec,
                                           const dist::ClusterConfig& cluster,
                                           const std::string& label) {
    const auto serial = run(codec, 1, cluster);
    const auto parallel = run(codec, 8, cluster);
    EXPECT_EQ(serial.size(), parallel.size()) << label;
    for (size_t e = 0; e < std::min(serial.size(), parallel.size()); ++e) {
      EXPECT_EQ(serial[e].bytes_up, parallel[e].bytes_up) << label;
      EXPECT_EQ(serial[e].bytes_down, parallel[e].bytes_down) << label;
      EXPECT_EQ(serial[e].messages, parallel[e].messages) << label;
      EXPECT_EQ(serial[e].network_seconds, parallel[e].network_seconds)
          << label;
      EXPECT_EQ(serial[e].joins, parallel[e].joins) << label;
      EXPECT_EQ(serial[e].leaves, parallel[e].leaves) << label;
      EXPECT_EQ(serial[e].rollbacks, parallel[e].rollbacks) << label;
      EXPECT_EQ(serial[e].train_loss, parallel[e].train_loss) << label;
      EXPECT_EQ(serial[e].test_loss, parallel[e].test_loss) << label;
    }
    return serial;
  };

  for (const char* codec : {"sketchml", "adam+key+quan", "zipml-16bit"}) {
    for (int servers : {1, 3}) {
      dist::ClusterConfig cluster;
      cluster.num_workers = 5;
      cluster.num_servers = servers;
      expect_thread_invariant(
          codec, cluster, std::string(codec) + " S=" + std::to_string(servers));
    }
  }

  // Churn: joins and leaves fire at batch boundaries, where the pending
  // broadcast is joined before the events charge the network.
  dist::ClusterConfig churn;
  churn.num_workers = 5;
  churn.num_servers = 3;
  churn.membership.seed = 3;
  churn.membership.join_prob = 0.1;
  churn.membership.leave_prob = 0.05;
  churn.membership.max_workers = 7;
  uint64_t joins = 0, leaves = 0;
  for (const auto& epoch : expect_thread_invariant("sketchml", churn, "churn")) {
    joins += epoch.joins;
    leaves += epoch.leaves;
  }
  EXPECT_GT(joins, 0u);
  EXPECT_GT(leaves, 0u);

  // Faults: drops, stragglers and below-quorum crashes; each failed epoch
  // rolls back to its checkpoint while a broadcast may be in flight.
  dist::ClusterConfig faults;
  faults.num_workers = 5;
  faults.faults.seed = 6;
  faults.faults.drop_prob = 0.05;
  faults.faults.straggle_prob = 0.1;
  faults.faults.crash_prob = 0.06;
  faults.faults.min_quorum = 3;
  faults.membership.checkpoint_every = 1;
  faults.membership.max_rollbacks = 8;
  uint64_t rollbacks = 0;
  for (const auto& epoch :
       expect_thread_invariant("sketchml", faults, "faults")) {
    rollbacks += epoch.rollbacks;
  }
  EXPECT_GT(rollbacks, 0u);
}

TEST(DeterminismTest, CodecBankLanesAreIndependentAndReplayable) {
  common::SparseGradient grad;
  common::Rng rng(479);
  uint64_t key = 0;
  for (int i = 0; i < 500; ++i) {
    key += 1 + rng.NextBounded(30);
    grad.push_back({key, rng.NextGaussian() * 0.05});
  }
  // The trainer's lanes: one prototype, forked once per worker.
  auto proto_a = std::move(core::MakeCodec("sketchml")).value();
  auto proto_b = std::move(core::MakeCodec("sketchml")).value();
  std::vector<std::vector<uint8_t>> lane_bytes;
  for (uint64_t lane = 0; lane < 4; ++lane) {
    const auto codec_a = proto_a->Fork(lane);
    const auto codec_b = proto_b->Fork(lane);
    compress::EncodedGradient msg_a, msg_b;
    ASSERT_TRUE(codec_a->Encode(grad, &msg_a).ok());
    ASSERT_TRUE(codec_b->Encode(grad, &msg_b).ok());
    EXPECT_EQ(msg_a.bytes, msg_b.bytes);  // Same lane replays.
    lane_bytes.push_back(msg_a.bytes);
  }
  for (size_t i = 0; i < lane_bytes.size(); ++i) {
    for (size_t j = i + 1; j < lane_bytes.size(); ++j) {
      EXPECT_NE(lane_bytes[i], lane_bytes[j]);  // Lanes are decorrelated.
    }
  }
}

TEST(DeterminismTest, FullWidthGroupHandlesTopBucket) {
  // q = 256, r = 1: group width 256 means local index 255 collides with
  // the kEmpty init value; verify the documented clamp behaviour.
  sketch::GroupedMinMaxSketch sketch(256, 1, 2, 1 << 12, 7);
  sketch.Insert(1, 255);
  sketch.Insert(2, 0);
  sketch.Insert(3, 254);
  EXPECT_EQ(sketch.Query(1, 0), 255);  // Untouched bins read as 255.
  EXPECT_EQ(sketch.Query(2, 0), 0);
  EXPECT_EQ(sketch.Query(3, 0), 254);
}

}  // namespace
}  // namespace sketchml
