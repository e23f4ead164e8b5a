#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/codec_factory.h"
#include "dist/fault.h"
#include "dist/trainer.h"
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

  std::unique_ptr<compress::GradientCodec> Codec(const std::string& name) {
    return std::move(core::MakeCodec(name)).value();
  }

  common::Result<std::vector<EpochStats>> Run(const ClusterConfig& cluster,
                                              int epochs,
                                              const std::string& codec,
                                              int num_threads = 1) {
    TrainerConfig config;
    config.learning_rate = 0.05;
    config.adam_epsilon = 0.01;
    config.num_threads = num_threads;
    DistributedTrainer trainer(train.get(), test.get(), loss.get(),
                               Codec(codec), cluster, config);
    return trainer.Run(epochs);
  }

  std::unique_ptr<ml::Dataset> train, test;
  std::unique_ptr<ml::Loss> loss;
};

/// The deterministic subset of EpochStats: everything except measured CPU
/// seconds (wall time varies run to run; byte counts, losses, and fault
/// accounting must not).
void ExpectDeterministicFieldsEqual(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retransmit_bytes, b.retransmit_bytes);
  EXPECT_EQ(a.lost_messages, b.lost_messages);
  EXPECT_EQ(a.degraded_batches, b.degraded_batches);
  EXPECT_EQ(a.avg_gradient_nnz, b.avg_gradient_nnz);  // Bit-exact.
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.test_loss, b.test_loss);
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector units.

TEST(FaultPlanTest, DefaultPlanIsInactiveAndValid) {
  FaultPlan plan;
  EXPECT_FALSE(plan.Active());
  EXPECT_TRUE(ValidateFaultPlan(plan).ok());
}

TEST(FaultPlanTest, AnyPositiveProbabilityActivates) {
  FaultPlan plan;
  plan.corrupt_prob = 0.01;
  EXPECT_TRUE(plan.Active());
}

TEST(FaultPlanTest, RejectsOutOfRangeProbability) {
  FaultPlan plan;
  plan.drop_prob = 1.5;
  EXPECT_EQ(ValidateFaultPlan(plan).code(),
            common::StatusCode::kInvalidArgument);
  plan.drop_prob = -0.1;
  EXPECT_FALSE(ValidateFaultPlan(plan).ok());
}

TEST(FaultPlanTest, RejectsBadRecoveryBudgets) {
  FaultPlan plan;
  plan.max_retries = 63;  // Backoff doubling would overflow the shift.
  EXPECT_FALSE(ValidateFaultPlan(plan).ok());
  plan = FaultPlan();
  plan.min_quorum = 0;
  EXPECT_FALSE(ValidateFaultPlan(plan).ok());
  plan = FaultPlan();
  plan.straggle_factor = 0.5;
  EXPECT_FALSE(ValidateFaultPlan(plan).ok());
}

TEST(FaultInjectorTest, DecisionsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.3;
  FaultInjector a(plan), b(plan);
  int fired = 0;
  for (uint64_t batch = 0; batch < 50; ++batch) {
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(a.ShouldDrop(batch, w, 0, 0), b.ShouldDrop(batch, w, 0, 0));
      EXPECT_EQ(a.ShouldCorrupt(batch, w, 0, 0),
                b.ShouldCorrupt(batch, w, 0, 0));
      if (a.ShouldDrop(batch, w, 0, 0)) ++fired;
    }
  }
  // ~30% of 200 decisions should fire; a degenerate oracle (always /
  // never) would fail both bounds.
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 140);
}

TEST(FaultInjectorTest, SeedChangesTheSequence) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.seed = 1;
  FaultInjector a(plan);
  plan.seed = 2;
  FaultInjector b(plan);
  int differ = 0;
  for (uint64_t batch = 0; batch < 100; ++batch) {
    if (a.ShouldDrop(batch, 0, 0, 0) != b.ShouldDrop(batch, 0, 0, 0)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjectorTest, AttemptsDrawIndependently) {
  // A retry must not deterministically share its predecessor's fate,
  // otherwise a dropped message could never be re-delivered.
  FaultPlan plan;
  plan.drop_prob = 0.5;
  FaultInjector inj(plan);
  int differ = 0;
  for (uint64_t batch = 0; batch < 100; ++batch) {
    if (inj.ShouldDrop(batch, 0, 0, 0) != inj.ShouldDrop(batch, 0, 0, 1)) {
      ++differ;
    }
  }
  EXPECT_GT(differ, 10);
}

TEST(FaultInjectorTest, CorruptMutatesBytesDeterministically) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  FaultInjector inj(plan);
  const std::vector<uint8_t> original(100, 0x5A);
  int changed = 0;
  for (uint64_t batch = 0; batch < 20; ++batch) {
    std::vector<uint8_t> once = original, twice = original;
    inj.Corrupt(&once, batch, 0, 0, 0);
    inj.Corrupt(&twice, batch, 0, 0, 0);
    EXPECT_EQ(once, twice);
    if (once != original) ++changed;
  }
  EXPECT_EQ(changed, 20);  // Corruption must actually damage the bytes.
}

TEST(FaultInjectorTest, BackoffDoublesPerAttempt) {
  FaultPlan plan;
  plan.backoff_seconds = 1e-3;
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(1), 1e-3);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(2), 2e-3);
  EXPECT_DOUBLE_EQ(inj.BackoffSeconds(5), 16e-3);
}

TEST(FaultInjectorTest, CrashKeepsWorkerDownForWindow) {
  FaultPlan plan;
  plan.crash_prob = 0.1;
  plan.crash_batches = 3;
  FaultInjector inj(plan);
  // Find a crash onset and check the worker stays down exactly 3 batches.
  for (int w = 0; w < 4; ++w) {
    for (uint64_t b = 1; b < 200; ++b) {
      if (!inj.WorkerCrashed(b - 1, w) && inj.WorkerCrashed(b, w) &&
          b + 3 < 200) {
        EXPECT_TRUE(inj.WorkerCrashed(b + 1, w));
        EXPECT_TRUE(inj.WorkerCrashed(b + 2, w));
        return;  // Found and verified one onset; that's enough.
      }
    }
  }
  FAIL() << "no crash onset found in 200 batches at p=0.1";
}

// ---------------------------------------------------------------------------
// Trainer integration.

TEST(FaultToleranceTest, InactivePlanVariantsAreBitIdentical) {
  // Changing inactive-plan knobs (seed, retry budget) must not perturb
  // training at all: an inactive plan's draws never fire.
  Fixture f;
  ClusterConfig plain;
  plain.num_workers = 4;
  ClusterConfig tweaked = plain;
  tweaked.faults.seed = 999;
  tweaked.faults.max_retries = 7;
  tweaked.faults.backoff_seconds = 0.5;
  auto a = f.Run(plain, 2, "sketchml");
  auto b = f.Run(tweaked, 2, "sketchml");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t e = 0; e < a->size(); ++e) {
    ExpectDeterministicFieldsEqual((*a)[e], (*b)[e]);
    EXPECT_EQ((*a)[e].injected_faults, 0u);
    EXPECT_EQ((*a)[e].retries, 0u);
    EXPECT_EQ((*a)[e].degraded_batches, 0u);
  }
}

TEST(FaultToleranceTest, SameSeedReplaysIdenticalFaultSequence) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.seed = 7;
  cluster.faults.drop_prob = 0.10;
  cluster.faults.corrupt_prob = 0.10;
  cluster.faults.straggle_prob = 0.10;
  auto a = f.Run(cluster, 2, "sketchml");
  auto b = f.Run(cluster, 2, "sketchml");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  uint64_t injected = 0;
  for (size_t e = 0; e < a->size(); ++e) {
    ExpectDeterministicFieldsEqual((*a)[e], (*b)[e]);
    injected += (*a)[e].injected_faults;
  }
  EXPECT_GT(injected, 0u);  // The plan must have actually fired.
}

TEST(FaultToleranceTest, FaultSequenceIsThreadCountInvariant) {
  // Injection decisions are keyed on (batch, worker, server, attempt),
  // never on execution order, so a threaded run replays the serial run.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 2;
  cluster.faults.seed = 11;
  cluster.faults.drop_prob = 0.10;
  cluster.faults.corrupt_prob = 0.10;
  auto serial = f.Run(cluster, 2, "sketchml", /*num_threads=*/1);
  auto threaded = f.Run(cluster, 2, "sketchml", /*num_threads=*/3);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(threaded.ok());
  for (size_t e = 0; e < serial->size(); ++e) {
    ExpectDeterministicFieldsEqual((*serial)[e], (*threaded)[e]);
  }
}

TEST(FaultToleranceTest, RetriesRecoverCorruptionAndDrops) {
  // The acceptance scenario: 5% corruption + 5% drop. With a retry
  // budget of 3 virtually every message is eventually delivered intact,
  // so training converges to (here: exactly) the fault-free loss while
  // paying for the faults in retries and retransmitted bytes.
  Fixture f;
  ClusterConfig clean;
  clean.num_workers = 4;
  ClusterConfig faulty = clean;
  faulty.faults.seed = 3;
  faulty.faults.drop_prob = 0.05;
  faulty.faults.corrupt_prob = 0.05;
  faulty.faults.max_retries = 3;
  auto base = f.Run(clean, 3, "sketchml");
  auto run = f.Run(faulty, 3, "sketchml");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EpochStats total = Aggregate(*run);
  EXPECT_GT(total.injected_faults, 0u);
  EXPECT_GT(total.retries, 0u);
  EXPECT_GT(total.retransmit_bytes, 0u);
  const double clean_loss = base->back().test_loss;
  const double faulty_loss = run->back().test_loss;
  EXPECT_LE(std::abs(faulty_loss - clean_loss), 0.10 * clean_loss);
  // Retransmits and backoff must show up in the modeled network time.
  EXPECT_GT(Aggregate(*run).network_seconds,
            Aggregate(*base).network_seconds);
}

TEST(FaultToleranceTest, ExhaustedRetriesDegradeToQuorum) {
  // Heavy drops against a small retry budget: some messages exhaust it
  // and get lost, batches apply with a subset of workers, training still
  // completes and converges.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.seed = 5;
  cluster.faults.drop_prob = 0.5;
  cluster.faults.max_retries = 1;
  cluster.faults.min_quorum = 1;
  auto run = f.Run(cluster, 3, "sketchml");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EpochStats total = Aggregate(*run);
  EXPECT_GT(total.lost_messages, 0u);
  EXPECT_GT(total.degraded_batches, 0u);
  EXPECT_LT(run->back().train_loss, run->front().train_loss * 1.05);
}

TEST(FaultToleranceTest, QuorumFailureReturnsUnavailable) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.drop_prob = 1.0;  // Every attempt lost.
  cluster.faults.max_retries = 1;
  cluster.faults.min_quorum = 2;
  TrainerConfig config;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             f.Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kUnavailable);
}

TEST(FaultToleranceTest, QuorumCountsOnlyWorkersTheBatchSentWorkTo) {
  // A 6-sample batch over 4 workers gives each worker a ceil-sized slice
  // of 2 samples, so only 3 workers get work. All 3 deliver, so the batch
  // meets quorum even though min_quorum names all 4 workers.
  Fixture f;
  for (const double straggle_prob : {0.0, 0.01}) {
    SCOPED_TRACE(straggle_prob);
    ClusterConfig cluster;
    cluster.num_workers = 4;
    cluster.faults.straggle_prob = straggle_prob;  // Messages untouched.
    cluster.faults.min_quorum = 4;
    TrainerConfig config;
    config.batch_ratio = 6.5 / static_cast<double>(f.train->size());
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               f.Codec("adam-double"), cluster, config);
    const auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->messages, 3u * result->num_batches);
    EXPECT_EQ(result->degraded_batches, 0u);
  }
}

TEST(FaultToleranceTest, CrashedWorkersDegradeButTrainingContinues) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.seed = 2;
  cluster.faults.crash_prob = 0.05;
  cluster.faults.crash_batches = 2;
  auto run = f.Run(cluster, 3, "adam-double");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EpochStats total = Aggregate(*run);
  EXPECT_GT(total.injected_faults, 0u);
  EXPECT_GT(total.degraded_batches, 0u);
  // A crashed worker sends nothing that batch.
  EXPECT_LT(total.messages, 4u * total.num_batches);
}

TEST(FaultToleranceTest, StragglersSlowTheEpochDown) {
  Fixture f;
  ClusterConfig clean;
  clean.num_workers = 4;
  ClusterConfig slow = clean;
  slow.faults.seed = 13;
  slow.faults.straggle_prob = 0.5;
  // The comparison below is between *measured* wall times of two separate
  // runs, so scheduling noise (e.g. a loaded CI host) can inflate either
  // side severalfold; a huge factor keeps the straggle signal dominant.
  slow.faults.straggle_factor = 1000.0;
  auto base = f.Run(clean, 1, "adam-double");
  auto run = f.Run(slow, 1, "adam-double");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(run.ok());
  // Stragglers multiply measured compute time but never change message
  // payloads (the active plan adds only the 8-byte frame header) or the
  // learned model.
  EXPECT_GT(run->back().compute_seconds, base->back().compute_seconds);
  EXPECT_EQ(run->back().bytes_up,
            base->back().bytes_up + 8u * base->back().messages);
  EXPECT_EQ(run->back().train_loss, base->back().train_loss);
  EXPECT_GT(run->back().injected_faults, 0u);
}

TEST(FaultToleranceTest, ServerStallsInflateNetworkTime) {
  Fixture f;
  ClusterConfig clean;
  clean.num_workers = 4;
  ClusterConfig stalled = clean;
  stalled.faults.seed = 19;
  stalled.faults.stall_prob = 0.5;
  stalled.faults.stall_seconds = 0.25;
  auto base = f.Run(clean, 1, "adam-double");
  auto run = f.Run(stalled, 1, "adam-double");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->back().network_seconds, base->back().network_seconds);
  EXPECT_GT(run->back().injected_faults, 0u);
  EXPECT_EQ(run->back().train_loss, base->back().train_loss);
}

TEST(FaultToleranceTest, FramingChargesEightBytesPerMessage) {
  // An active-but-quiet plan (probability too small for any draw to fire
  // in this run) isolates the framing cost: byte counts grow by exactly
  // the 8-byte header per gather message, and nothing else changes.
  Fixture f;
  ClusterConfig clean;
  clean.num_workers = 4;
  ClusterConfig framed = clean;
  framed.faults.drop_prob = 1e-15;
  auto base = f.Run(clean, 1, "adam-double");
  auto run = f.Run(framed, 1, "adam-double");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->back().injected_faults, 0u);  // Plan active, never fired.
  EXPECT_EQ(run->back().messages, base->back().messages);
  EXPECT_EQ(run->back().bytes_up,
            base->back().bytes_up + 8u * base->back().messages);
  EXPECT_EQ(run->back().train_loss, base->back().train_loss);
}

// ---------------------------------------------------------------------------
// Configuration validation (satellite: InvalidArgument, not div-by-zero).

TEST(ClusterValidationTest, RejectsNonPositiveWorkerOrServerCounts) {
  ClusterConfig cluster;
  cluster.num_workers = 0;
  EXPECT_EQ(ValidateClusterConfig(cluster).code(),
            common::StatusCode::kInvalidArgument);
  cluster = ClusterConfig();
  cluster.num_servers = -1;
  EXPECT_FALSE(ValidateClusterConfig(cluster).ok());
}

TEST(ClusterValidationTest, RejectsUnusableNetworkModel) {
  ClusterConfig cluster;
  cluster.network.bandwidth_gbps = 0.0;
  EXPECT_EQ(ValidateClusterConfig(cluster).code(),
            common::StatusCode::kInvalidArgument);
  cluster = ClusterConfig();
  cluster.network.latency_seconds = -1.0;
  EXPECT_FALSE(ValidateClusterConfig(cluster).ok());
  cluster = ClusterConfig();
  cluster.network.congestion_factor = 0.0;
  EXPECT_FALSE(ValidateClusterConfig(cluster).ok());
}

TEST(ClusterValidationTest, RejectsQuorumLargerThanCluster) {
  ClusterConfig cluster;
  cluster.num_workers = 2;
  cluster.faults.min_quorum = 3;
  EXPECT_FALSE(ValidateClusterConfig(cluster).ok());
}

TEST(ClusterValidationTest, TrainerSurfacesValidationFromRunEpoch) {
  Fixture f;
  ClusterConfig cluster;
  cluster.network.bandwidth_gbps = -1.0;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             f.Codec("adam-double"), cluster,
                             TrainerConfig());
  auto result = trainer.RunEpoch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  // Run() must refuse too, not just RunEpoch.
  EXPECT_FALSE(trainer.Run(2).ok());
}

}  // namespace
}  // namespace sketchml::dist
