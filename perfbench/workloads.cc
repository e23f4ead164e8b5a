// The benchmark's workloads. Each constructs its inputs from the seed and
// drives the library through its public API only:
//
//   kdd12-sketchml  Fig 9(a): LR on the kdd12 preset, SketchML codec,
//                   W=10 workers, S=1 server, congested Cluster-2.
//   ctr-adam        The lossless adam-double baseline on the compute-heavy
//                   ctr preset, same cluster.
//   mlp-dense       Fig 14: MLP 400-600-600-10, batch 60; each step's
//                   whole-model gradient goes through SketchML encode ->
//                   decode -> ApplySgd on one thread.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/codec_factory.h"
#include "dist/network_model.h"
#include "dist/trainer.h"
#include "harness.h"
#include "ml/dataset.h"
#include "ml/gradient.h"
#include "ml/loss.h"
#include "ml/mlp.h"
#include "ml/synthetic.h"

namespace perfbench {
namespace {

using namespace sketchml;
using common::Status;

constexpr int kWorkers = 10;

// Cluster scaling of the paper-figure benches (bench/bench_util.h),
// repeated here so the benchmark's definition does not move with them.
constexpr double kDataScale = 840.0;
constexpr double kComputeScale = kDataScale * 2.0;
constexpr double kCodecScale = kDataScale / 8.0;

/// Cluster-2 (congested 10 Gbps) scaled to the workload size, with ctr's
/// extra compute factor (bench::Cluster2For).
dist::ClusterConfig Cluster2For(const std::string& dataset) {
  dist::ClusterConfig c;
  c.num_workers = kWorkers;
  c.network = dist::NetworkModel::Scaled(
      dist::NetworkModel::Congested10Gbps(), kDataScale);
  c.compute_scale = kComputeScale * (dataset == "ctr" ? 7.0 : 1.0);
  c.codec_scale = kCodecScale;
  return c;
}

std::unique_ptr<compress::GradientCodec> MakeCodec(const std::string& name,
                                                   uint64_t seed) {
  core::SketchMlConfig config;
  config.seed = seed;
  auto codec = core::MakeCodec(name, config);
  SKETCHML_CHECK(codec.ok()) << codec.status().ToString();
  return std::move(codec).value();
}

/// Data-parallel LR training on a synthetic preset; one iteration is one
/// DistributedTrainer::RunEpoch.
class TrainerWorkload : public Workload {
 public:
  TrainerWorkload(const std::string& dataset, const std::string& codec,
                  uint64_t seed, int threads) {
    const ml::Dataset all = ml::GenerateSynthetic(ml::PresetFor(dataset, seed));
    train_ = all.Split(0.25).first;  // The paper's 75/25 split.
    loss_ = ml::MakeLoss("lr");
    config_.batch_ratio = 0.1;
    config_.learning_rate = 0.05;
    config_.lambda = 0.01;
    config_.adam_epsilon = 0.01;
    config_.evaluate_test_loss = false;
    config_.num_threads = threads;
    trainer_ = std::make_unique<dist::DistributedTrainer>(
        &train_, nullptr, loss_.get(), MakeCodec(codec, seed),
        Cluster2For(dataset), config_);
  }

  Status Iterate(IterationResult* out) override {
    auto epoch = trainer_->RunEpoch();
    if (!epoch.ok()) return epoch.status();
    const dist::EpochStats& stats = *epoch;
    out->samples = static_cast<double>(train_.size());
    out->sim_seconds = stats.TotalSeconds();
    out->bytes_up = stats.bytes_up;
    out->bytes_down = stats.bytes_down;
    out->messages = stats.messages;
    out->pairs_up = static_cast<uint64_t>(std::llround(
        stats.avg_gradient_nnz * static_cast<double>(stats.messages)));
    out->network_seconds = stats.network_seconds;
    loss_value_ = stats.train_loss;
    if (!std::isfinite(loss_value_)) {
      return Status::Internal("non-finite train loss");
    }
    return Status::Ok();
  }

  double Loss() override { return loss_value_; }

  /// The first batch of the train set, sliced over the workers exactly as
  /// the trainer partitions it, at the current weights.
  std::vector<common::SparseGradient> LayerInputs() override {
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(train_.size()) *
                               config_.batch_ratio));
    const size_t shard = (batch + kWorkers - 1) / kWorkers;
    std::vector<common::SparseGradient> slices;
    for (size_t lo = 0; lo < batch; lo += shard) {
      slices.push_back(ml::ComputeBatchGradient(
          *loss_, trainer_->optimizer().weights(), train_, lo,
          std::min(batch, lo + shard), config_.lambda));
    }
    return slices;
  }

 private:
  ml::Dataset train_;
  std::unique_ptr<ml::Loss> loss_;
  dist::TrainerConfig config_;
  std::unique_ptr<dist::DistributedTrainer> trainer_;
  double loss_value_ = 0.0;
};

constexpr int kMlpBatch = 60;
constexpr double kMlpLearningRate = 0.05;

/// The Fig 14 loop: one step computes the whole-model gradient of a batch,
/// sends it through SketchML and applies the decoded gradient. Simulated
/// step time is compute / W + encode + decode + 2W modeled transfers.
class MlpWorkload : public Workload {
 public:
  explicit MlpWorkload(uint64_t seed)
      : mlp_({400, 600, 600, 10}, seed),
        codec_(MakeCodec("sketchml", seed)),
        network_(dist::NetworkModel::Lab1Gbps()) {
    auto [train, test] = ml::GenerateSyntheticMnist(3000, 20, 10, seed)
                             .Split(0.2);
    train_ = std::move(train);
    test_ = std::move(test);
  }

  Status Iterate(IterationResult* out) override {
    const size_t begin = next_;
    const size_t end = std::min(train_.size(), begin + kMlpBatch);
    next_ = end == train_.size() ? 0 : end;

    common::Stopwatch watch;
    double batch_loss = 0.0;
    {
      obs::TraceSpan span("bench", "ml/grad");
      batch_loss = mlp_.ComputeBatchGradient(train_, begin, end, &grad_);
    }
    const double compute_seconds = watch.Restart();
    {
      obs::TraceSpan span("bench", "core/encode");
      SKETCHML_RETURN_IF_ERROR(codec_->Encode(grad_, &msg_));
    }
    {
      obs::TraceSpan span("bench", "core/decode");
      SKETCHML_RETURN_IF_ERROR(codec_->Decode(msg_, &decoded_));
    }
    const double codec_seconds = watch.Restart();
    SKETCHML_RETURN_IF_ERROR(CheckDecoded(batch_loss, out));
    {
      obs::TraceSpan span("bench", "ml/apply_sgd");
      mlp_.ApplySgd(decoded_, kMlpLearningRate);
    }

    const double transfer = network_.TransferSeconds(msg_.size());
    out->samples = static_cast<double>(end - begin);
    out->network_seconds = 2 * kWorkers * transfer;  // W up + W down.
    out->sim_seconds =
        compute_seconds / kWorkers + codec_seconds + out->network_seconds;
    out->bytes_up = static_cast<uint64_t>(kWorkers) * msg_.size();
    out->bytes_down = out->bytes_up;
    out->pairs_up = static_cast<uint64_t>(kWorkers) * grad_.size();
    out->messages = kWorkers;
    return Status::Ok();
  }

  double Loss() override { return mlp_.ComputeMeanLoss(test_); }

  std::vector<common::SparseGradient> LayerInputs() override {
    common::SparseGradient grad;
    mlp_.ComputeBatchGradient(train_, next_,
                              std::min(train_.size(), next_ + kMlpBatch),
                              &grad);
    return {std::move(grad)};
  }

 private:
  /// Decoded keys equal the sent keys, no value flips sign, and every
  /// output is finite. Also accumulates the L1 recovery error.
  Status CheckDecoded(double batch_loss, IterationResult* out) const {
    if (!std::isfinite(batch_loss)) {
      return Status::Internal("non-finite batch loss");
    }
    if (decoded_.size() != grad_.size()) {
      return Status::Internal("decoded " + std::to_string(decoded_.size()) +
                              " pairs, sent " + std::to_string(grad_.size()));
    }
    for (size_t i = 0; i < grad_.size(); ++i) {
      const double sent = grad_[i].value;
      const double got = decoded_[i].value;
      if (decoded_[i].key != grad_[i].key) {
        return Status::Internal("decoded key differs at pair " +
                                std::to_string(i));
      }
      if (!std::isfinite(got)) {
        return Status::Internal("non-finite decoded value");
      }
      if ((sent > 0.0 && got < 0.0) || (sent < 0.0 && got > 0.0)) {
        return Status::Internal("decoded value flipped sign at key " +
                                std::to_string(grad_[i].key));
      }
      out->recovery_error_l1 += std::abs(got - sent);
      out->recovery_ref_l1 += std::abs(sent);
    }
    return Status::Ok();
  }

  ml::Mlp mlp_;
  std::unique_ptr<compress::GradientCodec> codec_;
  dist::NetworkModel network_;
  ml::Dataset train_;
  ml::Dataset test_;
  size_t next_ = 0;
  common::SparseGradient grad_, decoded_;
  compress::EncodedGradient msg_;
};

}  // namespace

std::vector<WorkloadSpec> Workloads(int threads) {
  return {
      {"kdd12-sketchml", 10, 2, 8, threads,
       [threads](uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<TrainerWorkload>("kdd12", "sketchml", seed,
                                                  threads);
       }},
      {"ctr-adam", 10, 2, 8, threads,
       [threads](uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<TrainerWorkload>("ctr", "adam-double", seed,
                                                  threads);
       }},
      {"mlp-dense", 20, 3, 16, 1,
       [](uint64_t seed) -> std::unique_ptr<Workload> {
         return std::make_unique<MlpWorkload>(seed);
       }},
  };
}

}  // namespace perfbench
