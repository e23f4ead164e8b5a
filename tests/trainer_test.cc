#include "dist/trainer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compress/raw_codec.h"
#include "core/codec_factory.h"
#include "dist/fault.h"
#include "dist/network_model.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::dist {
namespace {

struct Fixture {
  Fixture() {
    ml::SyntheticConfig config;
    config.num_instances = 2000;
    config.dim = 1 << 14;
    config.avg_nnz = 30;
    config.seed = 17;
    ml::Dataset all = ml::GenerateSynthetic(config);
    auto [tr, te] = all.Split(0.25);
    train = std::make_unique<ml::Dataset>(std::move(tr));
    test = std::make_unique<ml::Dataset>(std::move(te));
    loss = ml::MakeLoss("lr");
  }

  std::unique_ptr<ml::Dataset> train, test;
  std::unique_ptr<ml::Loss> loss;
};

std::unique_ptr<compress::GradientCodec> Codec(const std::string& name) {
  return std::move(core::MakeCodec(name)).value();
}

// Sends like adam-double, but while `poison` is set, lane kBadLane's
// decoder corrupts what it hands the driver: kKeyPastModel appends key
// `dim`, an index past the model; kInfinity decodes the first value as
// +inf; kKeyPastModelThenUndecodable appends key `dim` and has lane
// kBadLane + 1 reject its message. The server/broadcast lane (not a fork)
// never does.
class PoisonedLaneCodec : public compress::GradientCodec {
 public:
  enum Poison { kKeyPastModel, kInfinity, kKeyPastModelThenUndecodable };
  static constexpr int64_t kBadLane = 2;

  PoisonedLaneCodec(uint64_t dim, std::shared_ptr<std::atomic<bool>> poison,
                    Poison kind = kKeyPastModel, int64_t lane = -1)
      : dim_(dim), poison_(std::move(poison)), kind_(kind), lane_(lane) {}

  std::string Name() const override { return "poisoned-lane"; }
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<PoisonedLaneCodec>(dim_, poison_, kind_,
                                               static_cast<int64_t>(lane));
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    SKETCHML_RETURN_IF_ERROR(raw_.Decode(in, out));
    if (!poison_->load()) return common::Status::Ok();
    if (kind_ == kKeyPastModelThenUndecodable && lane_ == kBadLane + 1) {
      return common::Status::CorruptedData("lane 3 cannot decode");
    }
    if (lane_ != kBadLane) return common::Status::Ok();
    if (kind_ != kInfinity) {
      out->push_back({dim_, 1.0});
    } else if (!out->empty()) {
      out->front().value = std::numeric_limits<double>::infinity();
    }
    return common::Status::Ok();
  }

 private:
  compress::RawCodec raw_;
  uint64_t dim_;
  std::shared_ptr<std::atomic<bool>> poison_;
  Poison kind_;
  int64_t lane_;
};

TEST(TrainerTest, DecodedKeyOutsideModelFailsBatchAndLeavesAggregateClean) {
  Fixture f;
  const uint64_t dim = f.train->dim();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    auto poison = std::make_shared<std::atomic<bool>>(true);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    TrainerConfig config;
    config.num_threads = threads;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                               std::make_unique<PoisonedLaneCodec>(dim, poison),
                               cluster, config);
    const auto failed = trainer.RunEpoch();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), common::StatusCode::kCorruptedData);
    const std::string& message = failed.status().message();
    EXPECT_NE(message.find("worker 2"), std::string::npos) << message;
    EXPECT_NE(message.find("key " + std::to_string(dim)), std::string::npos)
        << message;

    // The bad key came after workers 0-2's valid pairs were summed, and the
    // batch failed before the optimizer step. With the accumulator left
    // clean, the next epoch is exactly a fresh trainer's first.
    poison->store(false);
    const auto recovered = trainer.RunEpoch();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    DistributedTrainer fresh(f.train.get(), f.test.get(), f.loss.get(),
                             std::make_unique<PoisonedLaneCodec>(dim, poison),
                             cluster, config);
    const auto reference = fresh.RunEpoch();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(recovered->train_loss, reference->train_loss);
    EXPECT_EQ(trainer.optimizer().weights(), fresh.optimizer().weights());
  }
}

TEST(TrainerTest, LaterWorkersDecodeErrorOutranksAnEarlierKeyPastModel) {
  // Worker statuses fail a batch before its aggregate does: worker 2's
  // key past the model is folded (and refused) while worker 3 may still
  // run, but the batch reports worker 3's decode error.
  Fixture f;
  const uint64_t dim = f.train->dim();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    TrainerConfig config;
    config.num_threads = threads;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(
        f.train.get(), nullptr, f.loss.get(),
        std::make_unique<PoisonedLaneCodec>(
            dim, std::make_shared<std::atomic<bool>>(true),
            PoisonedLaneCodec::kKeyPastModelThenUndecodable),
        cluster, config);
    const auto result = trainer.RunEpoch();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), common::StatusCode::kCorruptedData);
    EXPECT_EQ(result.status().message(), "lane 3 cannot decode");
  }
}

// Sends like adam-double, but lane PoisonedLaneCodec::kBadLane appends key
// `dim`, past the model, to the message it decodes `nth` (counting from
// 0; a negative `nth` never fires) and sets `fired`.
class NthDecodePoisonCodec : public compress::GradientCodec {
 public:
  NthDecodePoisonCodec(uint64_t dim, int64_t nth,
                       std::shared_ptr<std::atomic<bool>> fired,
                       int64_t lane = -1)
      : dim_(dim), nth_(nth), fired_(std::move(fired)), lane_(lane) {}

  std::string Name() const override { return "nth-decode-poison"; }
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<NthDecodePoisonCodec>(dim_, nth_, fired_,
                                                  static_cast<int64_t>(lane));
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    SKETCHML_RETURN_IF_ERROR(raw_.Decode(in, out));
    if (lane_ == PoisonedLaneCodec::kBadLane && decodes_++ == nth_) {
      out->push_back({dim_, 1.0});
      fired_->store(true);
    }
    return common::Status::Ok();
  }

 private:
  compress::RawCodec raw_;
  uint64_t dim_;
  int64_t nth_;
  std::shared_ptr<std::atomic<bool>> fired_;
  int64_t lane_;
  int64_t decodes_ = 0;
};

TEST(TrainerTest, QuorumFailureOutranksAKeyPastModelAndRollsBackClean) {
  // Crash faults against a quorum of all four workers, with epoch
  // checkpoints: a batch with any worker down fails kUnavailable and the
  // epoch rolls back. Lane 2 decodes a key past the model in the first
  // such batch it still contributes to. The quorum failure must win (a
  // kCorruptedData would end the run), and the pairs folded before it
  // must leave no trace: the run equals the serial run without the key.
  Fixture f;
  const uint64_t dim = f.train->dim();
  ASSERT_EQ(f.train->size(), 1500u);
  const uint64_t batches_per_epoch = 10;  // Batch ratio 0.1.
  const int kBad = static_cast<int>(PoisonedLaneCodec::kBadLane);
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.crash_prob = 0.01;
  cluster.faults.min_quorum = 4;
  cluster.membership.checkpoint_every = 1;
  cluster.membership.max_rollbacks = 8;
  // A seed whose first epoch loses no worker (it has no checkpoint to roll
  // back to) and whose first crash comes in epoch 2 with lane 2 up. Every
  // earlier batch had all four workers up, and each ran once, so lane 2
  // decoded one message per earlier batch.
  int64_t nth = -1;
  for (uint64_t seed = 1; seed <= 200 && nth < 0; ++seed) {
    cluster.faults.seed = seed;
    const FaultInjector injector(cluster.faults);
    for (uint64_t batch = 0; batch < 2 * batches_per_epoch; ++batch) {
      bool any_down = false;
      for (int w = 0; w < cluster.num_workers; ++w) {
        any_down = any_down || injector.WorkerCrashed(batch, w);
      }
      if (!any_down) continue;
      if (batch >= batches_per_epoch && !injector.WorkerCrashed(batch, kBad)) {
        nth = static_cast<int64_t>(batch);
      }
      break;
    }
  }
  ASSERT_GE(nth, 0) << "no seed in [1, 200] sinks a batch of epoch 2 below "
                       "quorum with lane 2 up";

  TrainerConfig config;
  config.evaluate_test_loss = false;
  const auto run = [&](int threads, int64_t poisoned_decode) {
    config.num_threads = threads;
    auto fired = std::make_shared<std::atomic<bool>>(false);
    DistributedTrainer trainer(
        f.train.get(), nullptr, f.loss.get(),
        std::make_unique<NthDecodePoisonCodec>(dim, poisoned_decode, fired),
        cluster, config);
    auto epochs = trainer.Run(2);
    EXPECT_TRUE(epochs.ok()) << epochs.status().ToString();
    EXPECT_GT(trainer.rollbacks_used(), 0);
    EXPECT_EQ(fired->load(), poisoned_decode >= 0);
    return std::make_pair(epochs.ok() ? *epochs : std::vector<EpochStats>{},
                          trainer.optimizer().weights());
  };
  const auto [serial_epochs, serial_weights] = run(1, -1);
  ASSERT_EQ(serial_epochs.size(), 2u);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto [epochs, weights] = run(threads, nth);
    ASSERT_EQ(epochs.size(), 2u);
    for (size_t e = 0; e < epochs.size(); ++e) {
      EXPECT_EQ(epochs[e].rollbacks, serial_epochs[e].rollbacks);
      EXPECT_EQ(epochs[e].train_loss, serial_epochs[e].train_loss);
      EXPECT_EQ(epochs[e].bytes_up, serial_epochs[e].bytes_up);
    }
    EXPECT_EQ(weights, serial_weights);
  }
}

TEST(TrainerTest, NonFiniteAggregateFailsBatchBeforeTheUpdate) {
  // An inf reaching Adam would turn the weights into NaN while the epoch
  // still returned OK. The batch fails before the optimizer step instead,
  // with the accumulator drained clean, so after the poison clears the
  // next epoch is exactly a fresh trainer's first.
  Fixture f;
  const uint64_t dim = f.train->dim();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    auto poison = std::make_shared<std::atomic<bool>>(true);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    TrainerConfig config;
    config.num_threads = threads;
    config.evaluate_test_loss = false;
    const auto make = [&] {
      return std::make_unique<DistributedTrainer>(
          f.train.get(), f.test.get(), f.loss.get(),
          std::make_unique<PoisonedLaneCodec>(dim, poison,
                                              PoisonedLaneCodec::kInfinity),
          cluster, config);
    };
    auto trainer = make();
    const auto failed = trainer->RunEpoch();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), common::StatusCode::kCorruptedData);
    const std::string& message = failed.status().message();
    EXPECT_NE(message.find("not finite at batch 0"), std::string::npos)
        << message;

    poison->store(false);
    const auto recovered = trainer->RunEpoch();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    auto fresh = make();
    const auto reference = fresh->RunEpoch();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(recovered->train_loss, reference->train_loss);
    EXPECT_EQ(trainer->optimizer().weights(), fresh->optimizer().weights());
  }
}

// Sends like adam-double, but the driver/broadcast lane (not a fork)
// fails its 3rd Encode: the 3rd batch's broadcast.
class FailingBroadcastCodec : public compress::GradientCodec {
 public:
  explicit FailingBroadcastCodec(bool driver_lane = true)
      : driver_lane_(driver_lane) {}

  std::string Name() const override { return "failing-broadcast"; }
  std::unique_ptr<GradientCodec> Fork(uint64_t) const override {
    return std::make_unique<FailingBroadcastCodec>(false);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    if (driver_lane_ && ++encodes_ == 3) {
      return common::Status::Internal("broadcast encode 3 failed");
    }
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    return raw_.Decode(in, out);
  }

 private:
  compress::RawCodec raw_;
  bool driver_lane_;
  int encodes_ = 0;
};

TEST(TrainerTest, BroadcastErrorFailsEpochAtItsJoinAtAnyThreadCount) {
  // The failed broadcast's batch is already applied, the next batch's
  // concurrent worker results are not: both thread counts stop with the
  // same status on the same weights.
  Fixture f;
  std::vector<std::vector<double>> weights;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    TrainerConfig config;
    config.num_threads = threads;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                               std::make_unique<FailingBroadcastCodec>(),
                               cluster, config);
    const auto result = trainer.RunEpoch();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), common::StatusCode::kInternal);
    EXPECT_EQ(result.status().message(), "broadcast encode 3 failed");
    weights.push_back(trainer.optimizer().weights());
  }
  EXPECT_EQ(weights[0], weights[1]);
  EXPECT_NE(weights[0], std::vector<double>(weights[0].size(), 0.0));
}

// Sends like adam-double, but lane kBadLane's decoder rejects every
// message: a codec bug on bytes that arrived intact.
class UndecodableLaneCodec : public compress::GradientCodec {
 public:
  static constexpr int64_t kBadLane = 2;

  explicit UndecodableLaneCodec(int64_t lane = -1) : lane_(lane) {}

  std::string Name() const override { return "undecodable-lane"; }
  std::unique_ptr<GradientCodec> Fork(uint64_t lane) const override {
    return std::make_unique<UndecodableLaneCodec>(static_cast<int64_t>(lane));
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    if (lane_ == kBadLane) {
      return common::Status::CorruptedData("lane 2 cannot decode");
    }
    return raw_.Decode(in, out);
  }

 private:
  compress::RawCodec raw_;
  int64_t lane_;
};

TEST(TrainerTest, UndecodablePayloadFailsBatchWithOrWithoutFaultPlan) {
  // Resending bytes that arrived intact cannot change how they decode, so
  // the batch fails with the codec's status on both paths. An active plan
  // that fires nothing on messages must not retry it or drop the worker.
  Fixture f;
  for (const double straggle_prob : {0.0, 0.01}) {
    SCOPED_TRACE(straggle_prob);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    cluster.faults.straggle_prob = straggle_prob;
    TrainerConfig config;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               std::make_unique<UndecodableLaneCodec>(),
                               cluster, config);
    const auto result = trainer.RunEpoch();
    ASSERT_FALSE(result.ok()) << "degraded batches: "
                              << result->degraded_batches;
    EXPECT_EQ(result.status().code(), common::StatusCode::kCorruptedData);
    EXPECT_EQ(result.status().message(), "lane 2 cannot decode");
  }
}

TEST(NetworkModelTest, TransferSecondsIsLinearInBytes) {
  NetworkModel net{1.0, 0.0, 1.0};  // 1 Gbps, no latency.
  EXPECT_NEAR(net.TransferSeconds(125'000'000), 1.0, 1e-9);  // 1 Gbit.
  NetworkModel congested{10.0, 0.0, 8.0};
  EXPECT_NEAR(congested.TransferSeconds(125'000'000), 0.8, 1e-9);
}

TEST(NetworkModelTest, LatencyDominatesSmallMessages) {
  NetworkModel net = NetworkModel::Wan();
  const double t = net.TransferSeconds(10);
  EXPECT_NEAR(t, net.latency_seconds, 1e-4);
}

TEST(TrainerTest, RunsAnEpochAndReportsStats) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EpochStats& stats = *result;
  EXPECT_EQ(stats.epoch, 1);
  EXPECT_EQ(stats.num_batches, 10u);  // batch_ratio 0.1.
  EXPECT_EQ(stats.messages, 40u);     // 4 workers x 10 batches.
  EXPECT_GT(stats.bytes_up, 0u);
  EXPECT_GT(stats.bytes_down, 0u);
  EXPECT_GT(stats.network_seconds, 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.train_loss, 0.0);
  EXPECT_GT(stats.test_loss, 0.0);
  EXPECT_GT(stats.avg_gradient_nnz, 0.0);
  EXPECT_GT(stats.AvgCpuPercent(), 0.0);
  EXPECT_LE(stats.AvgCpuPercent(), 100.0);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;  // Noisy small batches; see TrainerConfig.
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.Run(5);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
}

TEST(TrainerTest, SketchMlConvergesToo) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("sketchml"), cluster, config);
  auto result = trainer.Run(5);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss * 1.02);
  EXPECT_LT(stats.back().train_loss, 0.8);  // Meaningfully below log(2).
}

TEST(TrainerTest, SketchMlMovesFewerBytesThanRaw) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  uint64_t bytes[2];
  int i = 0;
  for (const char* name : {"adam-double", "sketchml"}) {
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec(name), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    bytes[i++] = result->bytes_up + result->bytes_down;
  }
  // At this scaled-down gradient size (~1k nonzeros per message) the
  // fixed 8q-byte bucket-means header limits the rate; paper-scale
  // gradients reach 5-7x (see SketchMlCodecTest.CompressionRate*).
  EXPECT_LT(bytes[1], bytes[0] / 2);
}

TEST(TrainerTest, SimulatedTimeAccumulates) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  ASSERT_TRUE(trainer.RunEpoch().ok());
  const double after_one = trainer.simulated_seconds();
  ASSERT_TRUE(trainer.RunEpoch().ok());
  EXPECT_GT(trainer.simulated_seconds(), after_one);
  EXPECT_EQ(trainer.epochs_run(), 2);
}

TEST(TrainerTest, NullCodecDefaultsToRaw) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(), nullptr,
                             cluster, TrainerConfig());
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok());
  // Raw double: >= 12 bytes per pair on the wire.
  EXPECT_GT(result->AvgMessageBytes(), 12.0 * 10);
}

TEST(TrainerTest, MoreWorkersMoveMoreBytesThroughDriver) {
  // The Figure 11 mechanism: the driver link carries W messages per
  // batch, so total communication grows with W while per-worker compute
  // shrinks — eventually communication dominates for raw gradients.
  Fixture f;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  uint64_t bytes[2];
  double net_seconds[2];
  int i = 0;
  for (int workers : {2, 8}) {
    ClusterConfig cluster;
    cluster.num_workers = workers;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    bytes[i] = result->bytes_up + result->bytes_down;
    net_seconds[i] = result->network_seconds;
    ++i;
  }
  EXPECT_GT(bytes[1], bytes[0]);
  EXPECT_GT(net_seconds[1], net_seconds[0]);
}

TEST(TrainerTest, SmallerBatchesYieldSparserGradients) {
  // Figure 8(d): gradient sparsity shrinks with the batch ratio.
  Fixture f;
  double nnz[2];
  int i = 0;
  for (double ratio : {0.1, 0.01}) {
    ClusterConfig cluster;
    cluster.num_workers = 2;
    TrainerConfig config;
    config.batch_ratio = ratio;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    nnz[i++] = result->avg_gradient_nnz;
  }
  EXPECT_LT(nnz[1], nnz[0]);
}

TEST(TrainerTest, ShardedParameterServerCutsGatherTime) {
  // With S server shards the gather phase parallelizes across S links,
  // so raw-gradient epochs get dramatically cheaper network time while
  // total bytes stay in the same ballpark.
  Fixture f;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  double net_seconds[2];
  uint64_t bytes[2];
  int i = 0;
  for (int servers : {1, 8}) {
    ClusterConfig cluster;
    cluster.num_workers = 8;
    cluster.num_servers = servers;
    // Scale the link down so transfer time is byte-dominated (sharding
    // cannot help with per-message latency, only with serialized bytes).
    cluster.network = NetworkModel::Scaled(NetworkModel::Lab1Gbps(), 840.0);
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    net_seconds[i] = result->network_seconds;
    bytes[i] = result->bytes_up;
    ++i;
  }
  EXPECT_LT(net_seconds[1], net_seconds[0] * 0.5);
  EXPECT_LT(bytes[1], bytes[0] * 3 / 2);  // Only framing overhead grows.
}

TEST(TrainerTest, ShardedTrainingStillConverges) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("sketchml"), cluster, config);
  auto result = trainer.Run(4);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->back().train_loss, 0.8);
}

TEST(TrainerTest, SingleServerMatchesLegacyMessageCount) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 1;
  TrainerConfig config;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->messages, 40u);  // 4 workers x 10 batches.
}

TEST(EpochStatsTest, AggregateSums) {
  EpochStats a, b;
  a.epoch = 1;
  a.compute_seconds = 1.0;
  a.bytes_up = 100;
  a.messages = 2;
  a.avg_gradient_nnz = 10;
  a.train_loss = 0.5;
  b.epoch = 2;
  b.compute_seconds = 2.0;
  b.bytes_up = 200;
  b.messages = 4;
  b.avg_gradient_nnz = 20;
  b.train_loss = 0.4;
  EpochStats total = Aggregate({a, b});
  EXPECT_DOUBLE_EQ(total.compute_seconds, 3.0);
  EXPECT_EQ(total.bytes_up, 300u);
  EXPECT_EQ(total.messages, 6u);
  EXPECT_DOUBLE_EQ(total.train_loss, 0.4);  // Last epoch.
  EXPECT_DOUBLE_EQ(total.avg_gradient_nnz, 15.0);
  EXPECT_EQ(total.epoch, 2);
}

TEST(EpochStatsTest, ToStringMentionsLoss) {
  EpochStats s;
  s.epoch = 3;
  s.train_loss = 0.25;
  EXPECT_NE(s.ToString().find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace sketchml::dist
