#include "common/metrics_registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_sampler.h"
#include "common/obs.h"
#include "common/thread_pool.h"

namespace sketchml::obs {
namespace {

/// Enables metrics for the duration of a test and restores the previous
/// state (tests may run under SKETCHML_OBS presets with either setting).
class ScopedMetrics {
 public:
  ScopedMetrics() : was_enabled_(MetricsEnabled()) {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().Reset();
  }
  ~ScopedMetrics() {
    MetricsRegistry::Global().Reset();
    SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

TEST(MetricsRegistryTest, CounterAccumulates) {
  ScopedMetrics scoped;
  Counter c = MetricsRegistry::Global().GetCounter("test/counter");
  c.Add(2.5);
  c.Increment();
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/counter"),
      3.5);
}

TEST(MetricsRegistryTest, SameNameSameSlot) {
  ScopedMetrics scoped;
  Counter a = MetricsRegistry::Global().GetCounter("test/shared");
  Counter b = MetricsRegistry::Global().GetCounter("test/shared");
  a.Increment();
  b.Increment();
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/shared"),
      2.0);
}

TEST(MetricsRegistryTest, DisabledRecordingIsDropped) {
  ScopedMetrics scoped;
  Counter c = MetricsRegistry::Global().GetCounter("test/gated");
  SetMetricsEnabled(false);
  c.Add(100.0);
  SetMetricsEnabled(true);
  c.Add(1.0);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/gated"), 1.0);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  ScopedMetrics scoped;
  Gauge g = MetricsRegistry::Global().GetGauge("test/gauge");
  g.Set(7.0);
  g.Add(-2.0);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().GaugeValueOf("test/gauge"), 5.0);
}

TEST(MetricsRegistryTest, HistogramStatsAndBuckets) {
  ScopedMetrics scoped;
  Histogram h = MetricsRegistry::Global().GetHistogram("test/hist");
  h.Record(0.5);
  h.Record(1.0);
  h.Record(3.0);
  h.Record(100.0);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto* hist = snap.FindHistogram("test/hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);
  EXPECT_DOUBLE_EQ(hist->sum, 104.5);
  EXPECT_DOUBLE_EQ(hist->min, 0.5);
  EXPECT_DOUBLE_EQ(hist->max, 100.0);
  EXPECT_DOUBLE_EQ(hist->Mean(), 26.125);
}

TEST(MetricsRegistryTest, HistogramExtremeValuesLandInEdgeBuckets) {
  ScopedMetrics scoped;
  Histogram h = MetricsRegistry::Global().GetHistogram("test/edges");
  h.Record(-5.0);
  h.Record(std::nan(""));  // Counted, but never the min or the max.
  h.Record(1e19);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto* hist = snap.FindHistogram("test/edges");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_DOUBLE_EQ(hist->min, -5.0);
  EXPECT_DOUBLE_EQ(hist->max, 1e19);
}

TEST(MetricsRegistryTest, AggregatesAcrossPoolThreads) {
  ScopedMetrics scoped;
  Counter c = MetricsRegistry::Global().GetCounter("test/cross_thread");
  common::ThreadPool pool(4);
  std::vector<common::TaskFuture<void>> tasks;
  constexpr int kTasks = 64;
  constexpr int kAddsPerTask = 100;
  tasks.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    tasks.push_back(pool.Submit([c] {
      for (int i = 0; i < kAddsPerTask; ++i) c.Increment();
    }));
  }
  for (auto& task : tasks) task.Get();
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/cross_thread"),
      static_cast<double>(kTasks * kAddsPerTask));
}

TEST(MetricsRegistryTest, ExitedThreadTotalsAreRetained) {
  ScopedMetrics scoped;
  Counter c = MetricsRegistry::Global().GetCounter("test/retired");
  std::thread worker([c] { c.Add(42.0); });
  worker.join();
  // The shard died with the thread; its total must survive in the
  // registry's retired accumulator.
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/retired"),
      42.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsNames) {
  ScopedMetrics scoped;
  Counter c = MetricsRegistry::Global().GetCounter("test/reset");
  c.Add(9.0);
  MetricsRegistry::Global().Reset();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_DOUBLE_EQ(snap.CounterValueOf("test/reset"), 0.0);
  c.Add(1.0);  // Handle still valid after Reset.
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().Snapshot().CounterValueOf("test/reset"), 1.0);
}

TEST(MetricsRegistryTest, JsonlSkipsZeroCountersAndEscapesNames) {
  ScopedMetrics scoped;
  MetricsRegistry::Global().GetCounter("test/zero");
  Counter c = MetricsRegistry::Global().GetCounter("test/\"quoted\"");
  c.Add(1.0);
  std::ostringstream out;
  MetricsRegistry::Global().Snapshot().WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(text.find("test/zero"), std::string::npos);
  EXPECT_NE(text.find("test/\\\"quoted\\\""), std::string::npos);
}

TEST(MetricsRegistryTest, DefaultHandleIsInert) {
  ScopedMetrics scoped;
  Counter c;  // Never registered.
  c.Add(5.0);
  Histogram h;
  h.Record(1.0);
  Gauge g;
  g.Set(3.0);  // Nothing to assert beyond "does not crash".
}

TEST(MetricLabelsTest, LabeledNameRoundTrips) {
  const MetricLabels labels{{"worker", "3"}, {"phase", "encode"}};
  const std::string name = LabeledName("trainer/worker_seconds", labels);
  EXPECT_EQ(name, "trainer/worker_seconds{worker=3,phase=encode}");
  const ParsedMetricName parsed = ParseMetricName(name);
  EXPECT_EQ(parsed.base, "trainer/worker_seconds");
  EXPECT_EQ(parsed.labels, labels);
}

TEST(MetricLabelsTest, PlainNameParsesWithoutLabels) {
  EXPECT_EQ(LabeledName("trainer/epochs", {}), "trainer/epochs");
  const ParsedMetricName parsed = ParseMetricName("trainer/epochs");
  EXPECT_EQ(parsed.base, "trainer/epochs");
  EXPECT_TRUE(parsed.labels.empty());
}

TEST(MetricLabelsTest, LabelValueAndSubsetMatch) {
  const MetricLabels have{{"codec", "sketchml"}, {"worker", "1"}};
  EXPECT_EQ(LabelValue(have, "codec"), "sketchml");
  EXPECT_EQ(LabelValue(have, "missing"), "");
  EXPECT_TRUE(LabelsMatch(have, {}));
  EXPECT_TRUE(LabelsMatch(have, {{"worker", "1"}}));
  EXPECT_TRUE(LabelsMatch(have, {{"worker", "1"}, {"codec", "sketchml"}}));
  EXPECT_FALSE(LabelsMatch(have, {{"worker", "2"}}));
  EXPECT_FALSE(LabelsMatch(have, {{"server", "0"}}));
}

TEST(MetricsRegistryTest, LabeledCountersAreDistinctSlots) {
  ScopedMetrics scoped;
  auto& registry = MetricsRegistry::Global();
  Counter w0 = registry.GetCounter("test/labeled", {{"worker", "0"}});
  Counter w1 = registry.GetCounter("test/labeled", {{"worker", "1"}});
  Counter plain = registry.GetCounter("test/labeled");
  w0.Add(1.0);
  w1.Add(2.0);
  plain.Add(4.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.CounterValueOf("test/labeled{worker=0}"), 1.0);
  EXPECT_DOUBLE_EQ(snap.CounterValueOf("test/labeled{worker=1}"), 2.0);
  EXPECT_DOUBLE_EQ(snap.CounterValueOf("test/labeled"), 4.0);
}

TEST(MetricsRegistryTest, SumCountersRollsUpLabelSubsets) {
  ScopedMetrics scoped;
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test/roll", {{"worker", "0"}, {"phase", "a"}})
      .Add(1.0);
  registry.GetCounter("test/roll", {{"worker", "0"}, {"phase", "b"}})
      .Add(2.0);
  registry.GetCounter("test/roll", {{"worker", "1"}, {"phase", "a"}})
      .Add(4.0);
  registry.GetCounter("test/roll").Add(8.0);
  // A name sharing the prefix but with a longer base must not match.
  registry.GetCounter("test/rollover").Add(100.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.SumCounters("test/roll", {}), 15.0);
  EXPECT_DOUBLE_EQ(snap.SumCounters("test/roll", {{"phase", "a"}}), 5.0);
  EXPECT_DOUBLE_EQ(snap.SumCounters("test/roll", {{"worker", "0"}}), 3.0);
  EXPECT_DOUBLE_EQ(
      snap.SumCounters("test/roll", {{"worker", "1"}, {"phase", "a"}}), 4.0);
  EXPECT_DOUBLE_EQ(snap.SumCounters("test/roll", {{"worker", "9"}}), 0.0);
}

TEST(MetricsRegistryTest, LabeledJsonlCarriesParsedLabels) {
  ScopedMetrics scoped;
  MetricsRegistry::Global()
      .GetCounter("test/jl", {{"codec", "sketchml"}, {"worker", "2"}})
      .Add(1.0);
  std::ostringstream out;
  MetricsRegistry::Global().Snapshot().WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\":\"test/jl{codec=sketchml,worker=2}\""),
            std::string::npos);
  EXPECT_NE(
      text.find("\"labels\":{\"codec\":\"sketchml\",\"worker\":\"2\"}"),
      std::string::npos);
}

TEST(PromExpositionTest, GoldenOutput) {
  // Hand-built snapshot so the expected text is exact and hermetic: label
  // mangling, per-family TYPE lines, quantile-free histogram summaries,
  // and sketch summaries all pinned at once.
  MetricsSnapshot snap;
  snap.counters.push_back({LabeledName("trainer/bytes_up",
                                       {{"worker", "3"}}), 5.0});
  snap.counters.push_back({LabeledName("trainer/bytes_up",
                                       {{"worker", "4"}}), 7.0});
  snap.counters.push_back({"test/zero", 0.0});  // Skipped: zero counter.
  snap.counters.push_back({"telemetry/merges", 2.0});
  snap.gauges.push_back({"trainer/train_loss", 0.5});
  snap.gauges.push_back({"trainer/p99-loss", 3.0});  // '-' mangles to '_'.

  MetricsSnapshot::HistogramValue hist;
  hist.name = LabeledName("codec/encode_ns", {{"codec", "sk"}});
  hist.count = 2;
  hist.sum = 4.0;
  snap.histograms.push_back(hist);
  snap.histograms.push_back({});  // Empty histogram: skipped.

  SketchHistogramSummary sketch;
  sketch.name = "trainer/compute_latency_seconds";
  sketch.count = 100;
  sketch.p50.value = 0.25;
  sketch.p90.value = 0.5;
  sketch.p99.value = 1.0;
  sketch.p999.value = 2.0;
  snap.sketches.push_back(sketch);
  snap.sketches.push_back({});  // Empty sketch: skipped.

  std::ostringstream out;
  WritePromExposition(snap, out);
  EXPECT_EQ(out.str(),
            "# TYPE sketchml_trainer_bytes_up counter\n"
            "sketchml_trainer_bytes_up{worker=\"3\"} 5\n"
            "sketchml_trainer_bytes_up{worker=\"4\"} 7\n"
            "# TYPE sketchml_telemetry_merges counter\n"
            "sketchml_telemetry_merges 2\n"
            "# TYPE sketchml_trainer_train_loss gauge\n"
            "sketchml_trainer_train_loss 0.5\n"
            "# TYPE sketchml_trainer_p99_loss gauge\n"
            "sketchml_trainer_p99_loss 3\n"
            "# TYPE sketchml_codec_encode_ns summary\n"
            "sketchml_codec_encode_ns_sum{codec=\"sk\"} 4\n"
            "sketchml_codec_encode_ns_count{codec=\"sk\"} 2\n"
            "# TYPE sketchml_trainer_compute_latency_seconds summary\n"
            "sketchml_trainer_compute_latency_seconds{quantile=\"0.5\"} "
            "0.25\n"
            "sketchml_trainer_compute_latency_seconds{quantile=\"0.9\"} "
            "0.5\n"
            "sketchml_trainer_compute_latency_seconds{quantile=\"0.99\"} "
            "1\n"
            "sketchml_trainer_compute_latency_seconds{quantile=\"0.999\"} "
            "2\n"
            "sketchml_trainer_compute_latency_seconds_count 100\n");
}

TEST(PromExpositionTest, LabelValuesAreEscaped) {
  MetricsSnapshot snap;
  snap.counters.push_back(
      {LabeledName("test/esc", {{"path", "a\"b\\c"}}), 1.0});
  std::ostringstream out;
  WritePromExposition(snap, out);
  EXPECT_EQ(out.str(),
            "# TYPE sketchml_test_esc counter\n"
            "sketchml_test_esc{path=\"a\\\"b\\\\c\"} 1\n");
}

}  // namespace
}  // namespace sketchml::obs
