// Sketch-native telemetry: KLL-backed metric histograms. Pins the
// accuracy contract (quantiles within the sketch's rank-error bound of
// an exact-sort oracle), the determinism contract (snapshots identical
// at any recording-thread count below the spill threshold), window
// retirement semantics, the cross-node serialize/merge path, and the
// obs-on/off bit-identity of training output.

#include "sketch/sketch_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/random.h"
#include "compress/codec.h"
#include "core/sketchml.h"
#include "dist/trainer.h"
#include "ml/synthetic.h"

namespace sketchml {
namespace {

class SketchHistogramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    obs::SketchHistogramRegistry::Global().Reset();
  }
  void TearDown() override {
    obs::SetMetricsEnabled(false);
    obs::SketchHistogramRegistry::Global().Reset();
    obs::MetricsRegistry::Global().Reset();
  }

  static obs::SketchHistogramSummary Summary(const std::string& name) {
    for (auto& s : obs::SketchHistogramRegistry::Global().Summaries()) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "no summary for " << name;
    return {};
  }
};

TEST_F(SketchHistogramTest, QuantilesWithinRankErrorOfOracle) {
  obs::SketchHistogram h =
      obs::SketchHistogramRegistry::Global().Get("test/oracle");
  common::Rng rng(71);
  std::vector<double> data;
  const int n = 60000;  // Well past the spill threshold.
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Heavy-tailed, like per-batch latencies with stragglers.
    const double v = rng.NextBernoulli(0.95)
                         ? 0.01 + 0.001 * rng.NextGaussian()
                         : 0.05 * std::exp(rng.NextGaussian());
    data.push_back(v);
    h.Record(v);
  }
  std::sort(data.begin(), data.end());

  const obs::SketchHistogramSummary s = Summary("test/oracle");
  ASSERT_EQ(s.count, static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(s.min, data.front());
  EXPECT_DOUBLE_EQ(s.max, data.back());
  ASSERT_GT(s.eps, 0.0);

  // The estimate at rank q must land between the oracle's order
  // statistics at ranks q ± 2ε — the same window the SLO gate uses.
  const auto oracle_at = [&](double rank) {
    const double clamped = std::clamp(rank, 0.0, 1.0);
    const size_t idx = std::min(
        data.size() - 1, static_cast<size_t>(clamped * data.size()));
    return data[idx];
  };
  const struct {
    double q;
    double estimate;
  } checks[] = {{0.50, s.p50.value},
                {0.90, s.p90.value},
                {0.99, s.p99.value},
                {0.999, s.p999.value}};
  for (const auto& check : checks) {
    EXPECT_GE(check.estimate, oracle_at(check.q - 2.0 * s.eps)) << check.q;
    EXPECT_LE(check.estimate, oracle_at(check.q + 2.0 * s.eps)) << check.q;
  }
  // The reported bounds bracket the estimate by construction.
  EXPECT_LE(s.p99.lo, s.p99.value);
  EXPECT_GE(s.p99.hi, s.p99.value);
}

TEST_F(SketchHistogramTest, SnapshotsIdenticalAcrossThreadCounts) {
  // The same multiset recorded from 1, 2, and 4 threads must produce
  // bit-identical summaries: below the spill threshold the canonical
  // rebuild gathers the exact multiset regardless of partitioning.
  common::Rng rng(73);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) values.push_back(rng.NextGaussian());

  std::vector<obs::SketchHistogramSummary> per_thread_count;
  for (int threads : {1, 2, 4}) {
    obs::SketchHistogramRegistry::Global().Reset();
    obs::SketchHistogram h =
        obs::SketchHistogramRegistry::Global().Get("test/threads");
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = t; i < values.size(); i += threads) {
          h.Record(values[i]);
        }
      });
    }
    for (auto& thread : pool) thread.join();
    per_thread_count.push_back(Summary("test/threads"));
  }

  const obs::SketchHistogramSummary& first = per_thread_count.front();
  EXPECT_EQ(first.count, 3000u);
  for (const auto& s : per_thread_count) {
    EXPECT_EQ(s.count, first.count);
    EXPECT_EQ(s.min, first.min);
    EXPECT_EQ(s.max, first.max);
    for (auto member : {&obs::SketchHistogramSummary::p50,
                        &obs::SketchHistogramSummary::p90,
                        &obs::SketchHistogramSummary::p99,
                        &obs::SketchHistogramSummary::p999,
                        &obs::SketchHistogramSummary::wp50,
                        &obs::SketchHistogramSummary::wp99}) {
      EXPECT_EQ((s.*member).value, (first.*member).value);
      EXPECT_EQ((s.*member).lo, (first.*member).lo);
      EXPECT_EQ((s.*member).hi, (first.*member).hi);
    }
  }
}

TEST_F(SketchHistogramTest, WindowRetirementKeepsRecentEpochsOnly) {
  obs::SketchHistogram h =
      obs::SketchHistogramRegistry::Global().Get("test/windows");
  // Ten "epochs", each recording 100 copies of the epoch index.
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (int i = 0; i < 100; ++i) h.Record(static_cast<double>(epoch));
    obs::SketchHistogramRegistry::Global().AdvanceWindows();
  }

  const obs::SketchHistogramSummary s = Summary("test/windows");
  // Lifetime view covers everything ever recorded.
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  // The ring holds only the newest kSketchHistogramWindows epochs; the
  // two oldest (values 0 and 1) were evicted, so no windowed quantile can
  // return them.
  EXPECT_EQ(s.windows, obs::kSketchHistogramWindows);
  EXPECT_EQ(s.window_count,
            static_cast<uint64_t>(obs::kSketchHistogramWindows) * 100u);
  EXPECT_GE(s.wp50.lo, 2.0);
  EXPECT_GE(s.wp50.value, 2.0);
  // Live tail joins the windowed view before the next retirement.
  for (int i = 0; i < 100; ++i) h.Record(10.0);
  const obs::SketchHistogramSummary with_tail = Summary("test/windows");
  EXPECT_EQ(with_tail.count, 1100u);
  EXPECT_EQ(with_tail.window_count,
            static_cast<uint64_t>(obs::kSketchHistogramWindows) * 100u +
                100u);
  EXPECT_EQ(with_tail.windows, obs::kSketchHistogramWindows);
}

TEST_F(SketchHistogramTest, SerializedTailMergesLikeLocalRecording) {
  // Cross-node aggregation: two "workers" record disjoint halves, their
  // serialized tails merge into a cluster slot whose quantiles match a
  // sketch that saw the halves directly.
  auto& registry = obs::SketchHistogramRegistry::Global();
  obs::SketchHistogram w0 = registry.Get("test/lane", {{"worker", "0"}});
  obs::SketchHistogram w1 = registry.Get("test/lane", {{"worker", "1"}});
  obs::SketchHistogram cluster = registry.Get("test/lane_cluster");
  common::Rng rng(79);
  for (int i = 0; i < 1500; ++i) {
    const double v = rng.NextGaussian();
    (i % 2 == 0 ? w0 : w1).Record(v);
  }

  for (const obs::SketchHistogram* worker : {&w0, &w1}) {
    const std::vector<uint8_t> payload = registry.SerializeTail(*worker);
    ASSERT_FALSE(payload.empty());
    // Non-consuming: serializing again yields the identical payload.
    EXPECT_EQ(registry.SerializeTail(*worker), payload);
    ASSERT_TRUE(
        registry.MergeSerialized(cluster, payload.data(), payload.size())
            .ok());
  }

  const obs::SketchHistogramSummary merged = Summary("test/lane_cluster");
  EXPECT_EQ(merged.count, 1500u);
  // Every retained item survives serialization verbatim and the merged
  // multiset equals the union, so quantiles agree with a direct merge of
  // the two worker summaries' sources within the rank-error window.
  const obs::SketchHistogramSummary s0 = Summary(
      obs::LabeledName("test/lane", {{"worker", "0"}}));
  const obs::SketchHistogramSummary s1 = Summary(
      obs::LabeledName("test/lane", {{"worker", "1"}}));
  EXPECT_EQ(merged.count, s0.count + s1.count);
  EXPECT_DOUBLE_EQ(merged.min, std::min(s0.min, s1.min));
  EXPECT_DOUBLE_EQ(merged.max, std::max(s0.max, s1.max));

  // Corrupt payloads are rejected, never crash.
  const std::vector<uint8_t> payload = registry.SerializeTail(w0);
  EXPECT_FALSE(
      registry.MergeSerialized(cluster, payload.data(), payload.size() / 2)
          .ok());
}

TEST_F(SketchHistogramTest, InertAndDisabledHandlesRecordNothing) {
  obs::SketchHistogram inert;  // Default-constructed: no registry slot.
  inert.Record(1.0);           // Must be a no-op, not a crash.

  obs::SketchHistogram h =
      obs::SketchHistogramRegistry::Global().Get("test/disabled");
  obs::SetMetricsEnabled(false);
  for (int i = 0; i < 100; ++i) h.Record(1.0);
  obs::SetMetricsEnabled(true);
  for (auto& s : obs::SketchHistogramRegistry::Global().Summaries()) {
    EXPECT_NE(s.name, "test/disabled");  // Empty slots are skipped.
  }
}

TEST_F(SketchHistogramTest, SnapshotCarriesSketchSummaries) {
  // The function-pointer seam: MetricsRegistry snapshots must include
  // sketch summaries once the sketch registry exists.
  obs::SketchHistogram h =
      obs::SketchHistogramRegistry::Global().Get("test/seam");
  for (int i = 0; i < 10; ++i) h.Record(static_cast<double>(i));
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  const obs::SketchHistogramSummary* s = snap.FindSketch("test/seam");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 10u);
  EXPECT_DOUBLE_EQ(s->min, 0.0);
  EXPECT_DOUBLE_EQ(s->max, 9.0);
}

TEST_F(SketchHistogramTest, CodecForksShareOneLatencySketchPerCodec) {
  // Codec latency lives on one sketch slot per codec: forks keep their
  // worker-labeled counters but merge their latencies into the slot
  // labeled with the codec alone, and nothing lands on a plain histogram.
  obs::MetricsRegistry::Global().Reset();
  auto codec = std::move(core::MakeCodec("sketchml")).value();
  const std::string name = codec->Name();
  common::SparseGradient grad;
  for (uint64_t key = 0; key < 64; ++key) {
    grad.push_back({key * 3, std::sin(static_cast<double>(key))});
  }
  constexpr int kMessages = 5;
  for (uint64_t lane : {0, 1}) {
    std::unique_ptr<compress::GradientCodec> fork = codec->Fork(lane);
    fork->SetMetricLabel("worker", std::to_string(lane));
    for (int i = 0; i < kMessages; ++i) {
      compress::EncodedGradient msg;
      ASSERT_TRUE(fork->Encode(grad, &msg).ok());
      common::SparseGradient decoded;
      ASSERT_TRUE(fork->Decode(msg, &decoded).ok());
    }
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  for (const char* base : {"codec/encode_ns", "codec/decode_ns"}) {
    int slots = 0;
    for (const auto& s : snap.sketches) {
      slots += obs::ParseMetricName(s.name).base == base;
    }
    EXPECT_EQ(slots, 1) << base;
    const obs::SketchHistogramSummary* s =
        snap.FindSketch(obs::LabeledName(base, {{"codec", name}}));
    ASSERT_NE(s, nullptr) << base;
    EXPECT_EQ(s->count, 2u * kMessages) << base;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(h.name.rfind("codec/", 0), 0u) << h.name;
  }
  EXPECT_DOUBLE_EQ(snap.SumCounters("codec/encode_calls", {{"worker", "1"}}),
                   kMessages);
}

TEST_F(SketchHistogramTest, TrainingOutputBitIdenticalWithObsOnAndOff) {
  // The telemetry layer reads training state but never influences it:
  // losses and message bytes must match bit for bit whether sketch
  // recording and epoch-boundary merging run or not.
  ml::SyntheticConfig config;
  config.num_instances = 800;
  config.dim = 1 << 12;
  config.seed = 83;
  ml::Dataset all = ml::GenerateSynthetic(config);
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss("lr");

  const auto run = [&](bool obs_on) {
    obs::SetMetricsEnabled(obs_on);
    obs::SketchHistogramRegistry::Global().Reset();
    obs::MetricsRegistry::Global().Reset();
    dist::ClusterConfig cluster;
    cluster.num_workers = 3;
    dist::TrainerConfig trainer_config;
    trainer_config.learning_rate = 0.05;
    trainer_config.adam_epsilon = 0.01;
    dist::DistributedTrainer trainer(
        &train, &test, loss.get(),
        std::move(core::MakeCodec("sketchml")).value(), cluster,
        trainer_config);
    auto stats = trainer.Run(2);
    EXPECT_TRUE(stats.ok());
    return std::move(stats).value();
  };

  const auto with_obs = run(true);
  // The sketch lanes actually recorded while obs was on.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_FALSE(snap.sketches.empty());
  EXPECT_GT(snap.CounterValueOf("telemetry/merges"), 0.0);
  const auto without_obs = run(false);

  ASSERT_EQ(with_obs.size(), without_obs.size());
  for (size_t e = 0; e < with_obs.size(); ++e) {
    EXPECT_EQ(with_obs[e].bytes_up, without_obs[e].bytes_up);
    EXPECT_EQ(with_obs[e].bytes_down, without_obs[e].bytes_down);
    EXPECT_EQ(with_obs[e].messages, without_obs[e].messages);
    EXPECT_DOUBLE_EQ(with_obs[e].train_loss, without_obs[e].train_loss);
    EXPECT_DOUBLE_EQ(with_obs[e].test_loss, without_obs[e].test_loss);
    EXPECT_DOUBLE_EQ(with_obs[e].network_seconds,
                     without_obs[e].network_seconds);
  }
}

}  // namespace
}  // namespace sketchml
