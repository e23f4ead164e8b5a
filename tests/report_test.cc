#include "dist/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/metrics_sampler.h"
#include "common/obs.h"
#include "common/trace.h"
#include "core/codec_factory.h"
#include "dist/stats.h"
#include "dist/trainer.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::dist {
namespace {

// ---------------------------------------------------------------------------
// Series parsing on hand-built text.

const char kHeader[] =
    R"({"type":"run","schema":1,"git_sha":"cafe01","start_unix_ms":7,)"
    R"("meta":{"codec":"sketchml","workers":"2","seed":"1"}})";

std::string SampleLine(double t_ns, const std::string& reason,
                       const std::string& counters,
                       const std::string& gauges) {
  std::ostringstream out;
  out << R"({"type":"sample","t_ns":)" << t_ns << R"(,"reason":")" << reason
      << R"(","dropped_trace_events":0,"counters":{)" << counters
      << R"(},"gauges":{)" << gauges << R"(},"histograms":{}})";
  return out.str();
}

TEST(RunSeriesTest, ParsesHeaderAndSamples) {
  std::string text = std::string(kHeader) + "\n" +
                     SampleLine(1e9, "epoch",
                                R"("trainer/compute_seconds":1.5,)"
                                R"("trainer/worker_seconds{worker=0,phase=compute}":0.75,)"
                                R"("trainer/worker_seconds{worker=1,phase=compute}":0.75)",
                                R"("trainer/train_loss":0.5)") +
                     "\n" +
                     SampleLine(2e9, "epoch",
                                R"("trainer/compute_seconds":3.0)",
                                R"("trainer/train_loss":0.25)") +
                     "\n" +
                     SampleLine(2.5e9, "final",
                                R"("trainer/compute_seconds":3.0)", "") +
                     "\n";
  auto parsed = ParseRunSeries(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunSeries& series = *parsed;
  EXPECT_EQ(series.git_sha, "cafe01");
  EXPECT_EQ(series.MetaOr("codec", ""), "sketchml");
  EXPECT_EQ(series.MetaOr("missing", "dflt"), "dflt");
  ASSERT_EQ(series.samples.size(), 3u);
  EXPECT_EQ(series.EpochSamples().size(), 2u);
  ASSERT_NE(series.Final(), nullptr);
  EXPECT_EQ(series.Final()->reason, "final");
  const SeriesSample& first = series.samples[0];
  EXPECT_DOUBLE_EQ(first.CounterOr("trainer/compute_seconds", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(first.GaugeOr("trainer/train_loss", 0.0), 0.5);
  // Labeled roll-up matches the registry convention.
  EXPECT_DOUBLE_EQ(
      first.SumCounters("trainer/worker_seconds", {{"phase", "compute"}}),
      1.5);
  EXPECT_DOUBLE_EQ(
      first.SumCounters("trainer/worker_seconds", {{"worker", "1"}}), 0.75);
}

TEST(RunSeriesTest, RejectsMissingHeaderAndBadLines) {
  EXPECT_FALSE(ParseRunSeries("").ok());
  // A sample with no preceding run header is rejected.
  EXPECT_FALSE(ParseRunSeries(SampleLine(1, "epoch", "", "")).ok());
  // Malformed JSON mid-file is a parse error, not silently skipped.
  auto bad = ParseRunSeries(std::string(kHeader) + "\n{not json\n");
  EXPECT_FALSE(bad.ok());
}

TEST(RunSeriesTest, HeaderEscapesControlBytes) {
  // Run metadata is free text (a --dataset path may hold a tab): every
  // byte below 0x20 must be escaped so strict JSON parsers accept it.
  const std::string path = ::testing::TempDir() + "/escape.series.jsonl";
  const std::string value = "a\tb\x01";
  obs::MetricsSampler::Options options;
  options.out_path = path;
  options.metadata.Add("dataset", value);
  auto started = obs::MetricsSampler::Start(std::move(options));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_TRUE((*started)->Stop().ok());
  auto text = ReadFileToString(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  const std::string header = text->substr(0, text->find('\n'));
  for (const char c : header) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << header;
  }
  auto series = ParseRunSeries(*text);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->MetaOr("dataset", ""), value);
}

// ---------------------------------------------------------------------------
// End-to-end: trainer -> sampler -> LoadRunSeries -> BuildRunReport.

struct TrainedRun {
  RunSeries series;
  EpochStats totals;  // Sum of the trainer's own per-epoch stats.
};

void RunTrainerWithSampler(const std::string& path, int epochs,
                           TrainedRun* out) {
  ml::SyntheticConfig data_config;
  data_config.num_instances = 1200;
  data_config.dim = 1 << 12;
  data_config.avg_nnz = 20;
  data_config.seed = 5;
  ml::Dataset all = ml::GenerateSynthetic(data_config);
  auto [train, test] = all.Split(0.25);
  auto loss = ml::MakeLoss("lr");
  ClusterConfig cluster;
  cluster.num_workers = 2;
  TrainerConfig config;
  config.num_threads = 2;
  // Metrics on before construction: per-entity handles resolve in the
  // trainer constructor.
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  DistributedTrainer trainer(&train, &test, loss.get(),
                             std::move(core::MakeCodec("sketchml")).value(),
                             cluster, config);

  obs::MetricsSampler::Options options;
  options.out_path = path;
  options.interval_seconds = 0.0;  // Epoch-boundary samples only.
  options.metadata.Add("codec", "sketchml");
  options.metadata.Add("workers", static_cast<long long>(2));
  auto started = obs::MetricsSampler::Start(std::move(options));
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto sampler = std::move(*started);

  for (int e = 0; e < epochs; ++e) {
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    out->totals.compute_seconds += result->compute_seconds;
    out->totals.encode_seconds += result->encode_seconds;
    out->totals.decode_seconds += result->decode_seconds;
    out->totals.update_seconds += result->update_seconds;
    out->totals.network_seconds += result->network_seconds;
    sampler->SampleNow("epoch");
  }
  ASSERT_TRUE(sampler->Stop().ok());
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(was_enabled);

  auto loaded = LoadRunSeries(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  out->series = std::move(*loaded);
}

TEST(RunReportTest, TrainerSeriesReconcilesWithEpochStats) {
  const std::string path = ::testing::TempDir() + "/report_e2e.series.jsonl";
  TrainedRun run;
  RunTrainerWithSampler(path, /*epochs=*/2, &run);
  std::remove(path.c_str());
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(run.series.MetaOr("codec", ""), "sketchml");
  ASSERT_EQ(run.series.EpochSamples().size(), 2u);
  const RunReport report = BuildRunReport(run.series);

  // Aggregate phase totals equal the sum of the trainer's own EpochStats.
  const auto near = [](double value, double want) {
    EXPECT_NEAR(value, want, 1e-9 * std::max(1.0, std::abs(want)));
  };
  near(report.compute_seconds, run.totals.compute_seconds);
  near(report.encode_seconds, run.totals.encode_seconds);
  near(report.decode_seconds, run.totals.decode_seconds);
  near(report.update_seconds, run.totals.update_seconds);
  near(report.network_seconds, run.totals.network_seconds);

  // Per-worker rows sum back to the aggregates (the Fig-9 breakdown is a
  // partition, not an estimate).
  ASSERT_EQ(report.workers.size(), 2u);
  double worker_compute = 0.0;
  double worker_encode = 0.0;
  for (const WorkerPhaseRow& row : report.workers) {
    worker_compute += row.compute_seconds;
    worker_encode += row.encode_seconds;
    EXPECT_GT(row.RecoveryErrorRel(), 0.0);   // SketchML is lossy.
    EXPECT_LT(row.RecoveryErrorRel(), 1.0);   // ...but bounded.
  }
  near(worker_compute, report.compute_seconds);
  double driver_encode = 0.0;
  if (const SeriesSample* fin = run.series.Final()) {
    driver_encode =
        fin->SumCounters("trainer/driver_seconds", {{"phase", "encode"}});
  }
  near(worker_encode + driver_encode, report.encode_seconds);

  ASSERT_GE(report.servers.size(), 1u);
  EXPECT_GT(report.servers[0].gather_bytes, 0.0);

  // Codec table: sketchml compresses (>1 ratio) and recorded latency.
  ASSERT_GE(report.codecs.size(), 1u);
  const CodecRow* sketchml_row = nullptr;
  for (const CodecRow& row : report.codecs) {
    if (row.codec == "sketchml") sketchml_row = &row;
  }
  ASSERT_NE(sketchml_row, nullptr);
  EXPECT_GT(sketchml_row->encode_calls, 0.0);
  EXPECT_GT(sketchml_row->CompressionRatio(), 1.0);
  EXPECT_GT(sketchml_row->p50_encode_ns, 0.0);
  EXPECT_LE(sketchml_row->p50_encode_ns, sketchml_row->p99_encode_ns);
  EXPECT_GT(sketchml_row->p50_decode_ns, 0.0);
  EXPECT_LE(sketchml_row->p50_decode_ns, sketchml_row->p99_decode_ns);

  // Epoch rows: one per boundary sample, phases partition the epoch and
  // straggler bookkeeping is populated.
  ASSERT_EQ(report.epochs.size(), 2u);
  double epoch_compute = 0.0;
  for (const EpochRow& row : report.epochs) {
    epoch_compute += row.compute_seconds;
    EXPECT_GE(row.straggler_worker, 0);
    EXPECT_LT(row.straggler_worker, 2);
    EXPECT_GE(row.Imbalance(), 1.0);
    EXPECT_GT(row.train_loss, 0.0);
  }
  near(epoch_compute, report.compute_seconds);

  // Rendering mentions every section (cheap smoke check for the CLI).
  const std::string text = RenderRunReport(report);
  EXPECT_NE(text.find("worker"), std::string::npos);
  EXPECT_NE(text.find("sketchml"), std::string::npos);
  EXPECT_NE(text.find("epoch"), std::string::npos);
  // A fault-free run reports no fault section at all.
  EXPECT_FALSE(report.faults.Any());
  EXPECT_EQ(text.find("fault tolerance"), std::string::npos);
}

TEST(RunReportTest, FaultCountersRollUpIntoFaultSummary) {
  const std::string text =
      std::string(kHeader) + "\n" +
      SampleLine(1e9, "final",
                 R"("fault/injected{kind=drop,worker=0}":3,)"
                 R"("fault/injected{kind=drop,worker=1}":2,)"
                 R"("fault/injected{kind=corrupt,worker=0}":4,)"
                 R"("fault/injected{kind=stall,server=0}":1,)"
                 R"("net/retries{worker=0}":6,)"
                 R"("net/retries{worker=1}":1,)"
                 R"("net/retransmit_bytes{worker=0}":5000,)"
                 R"("net/lost_messages":2,)"
                 R"("trainer/degraded_batches":2)",
                 "") +
      "\n";
  auto parsed = ParseRunSeries(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunReport report = BuildRunReport(*parsed);
  EXPECT_DOUBLE_EQ(report.faults.injected_drop, 5.0);
  EXPECT_DOUBLE_EQ(report.faults.injected_corrupt, 4.0);
  EXPECT_DOUBLE_EQ(report.faults.injected_stall, 1.0);
  EXPECT_DOUBLE_EQ(report.faults.InjectedTotal(), 10.0);
  EXPECT_DOUBLE_EQ(report.faults.retries, 7.0);
  EXPECT_DOUBLE_EQ(report.faults.retransmit_bytes, 5000.0);
  EXPECT_DOUBLE_EQ(report.faults.lost_messages, 2.0);
  EXPECT_DOUBLE_EQ(report.faults.degraded_batches, 2.0);
  EXPECT_TRUE(report.faults.Any());
  const std::string rendered = RenderRunReport(report);
  EXPECT_NE(rendered.find("fault tolerance"), std::string::npos);
  EXPECT_NE(rendered.find("7 retries"), std::string::npos);
  EXPECT_NE(rendered.find("2 batches applied degraded"), std::string::npos);
}

TEST(RunReportTest, MembershipCountersRollUpIntoMembershipSummary) {
  const std::string text =
      std::string(kHeader) + "\n" +
      SampleLine(1e9, "final",
                 R"("membership/events{kind=join}":3,)"
                 R"("membership/events{kind=leave}":2,)"
                 R"("membership/events{kind=depart}":1,)"
                 R"("membership/handoff_bytes":4096,)"
                 R"("membership/sync_bytes":65536,)"
                 R"("membership/reconfigurations":2,)"
                 R"("membership/rollbacks":1,)"
                 R"("membership/checkpoint_bytes":12345)",
                 "") +
      "\n";
  auto parsed = ParseRunSeries(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunReport report = BuildRunReport(*parsed);
  EXPECT_DOUBLE_EQ(report.membership.joins, 3.0);
  EXPECT_DOUBLE_EQ(report.membership.leaves, 2.0);
  EXPECT_DOUBLE_EQ(report.membership.departs, 1.0);
  EXPECT_DOUBLE_EQ(report.membership.EventTotal(), 6.0);
  EXPECT_DOUBLE_EQ(report.membership.handoff_bytes, 4096.0);
  EXPECT_DOUBLE_EQ(report.membership.sync_bytes, 65536.0);
  EXPECT_DOUBLE_EQ(report.membership.reconfigurations, 2.0);
  EXPECT_DOUBLE_EQ(report.membership.rollbacks, 1.0);
  EXPECT_DOUBLE_EQ(report.membership.checkpoint_bytes, 12345.0);
  EXPECT_TRUE(report.membership.Any());
  const std::string rendered = RenderRunReport(report);
  EXPECT_NE(rendered.find("elastic membership"), std::string::npos);
  EXPECT_NE(rendered.find("2 shard reconfigurations"), std::string::npos);
  EXPECT_NE(rendered.find("1 rollbacks"), std::string::npos);

  // A churn-free series reports no membership section at all.
  auto plain = ParseRunSeries(std::string(kHeader) + "\n" +
                              SampleLine(1e9, "final",
                                         R"("trainer/compute_seconds":1.0)",
                                         "") +
                              "\n");
  ASSERT_TRUE(plain.ok());
  const RunReport quiet = BuildRunReport(*plain);
  EXPECT_FALSE(quiet.membership.Any());
  EXPECT_EQ(RenderRunReport(quiet).find("elastic membership"),
            std::string::npos);
}

TEST(RunReportTest, EpochMeanAveragesOnlyWorkersActiveThatEpoch) {
  // Worker 2 joins in epoch 2: the run's lifetime label set is {0,1,2},
  // but epoch 1's mean must average over the two workers that actually
  // ran — dividing by three would fake straggler imbalance.
  const std::string text =
      std::string(kHeader) + "\n" +
      SampleLine(1e9, "epoch",
                 R"("trainer/worker_seconds{worker=0,phase=compute}":1.0,)"
                 R"("trainer/worker_seconds{worker=1,phase=compute}":1.0)",
                 "") +
      "\n" +
      SampleLine(2e9, "epoch",
                 R"("trainer/worker_seconds{worker=0,phase=compute}":2.0,)"
                 R"("trainer/worker_seconds{worker=1,phase=compute}":2.0,)"
                 R"("trainer/worker_seconds{worker=2,phase=compute}":0.5)",
                 "") +
      "\n";
  auto parsed = ParseRunSeries(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const RunReport report = BuildRunReport(*parsed);
  ASSERT_EQ(report.epochs.size(), 2u);
  // Epoch 1: two active workers at 1.0s each — mean 1.0, no imbalance.
  EXPECT_DOUBLE_EQ(report.epochs[0].mean_worker_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.epochs[0].straggler_seconds, 1.0);
  // Epoch 2: deltas 1.0, 1.0, 0.5 over three active workers.
  EXPECT_DOUBLE_EQ(report.epochs[1].mean_worker_seconds, 2.5 / 3.0);
  EXPECT_DOUBLE_EQ(report.epochs[1].straggler_seconds, 1.0);

  // The series carries no sketch summaries, so the straggler columns fall
  // back to the mean-based ones.
  const std::string rendered = RenderRunReport(report);
  EXPECT_EQ(rendered.find("p99-strag"), std::string::npos);
  EXPECT_NE(rendered.find("straggler  imbalance"), std::string::npos);
}

// ---------------------------------------------------------------------------
// A/B diff: the regression gate.

std::string TwoRunSeries(double encode_seconds, double bytes_up,
                         double messages = 640.0) {
  std::ostringstream counters;
  counters << R"("trainer/compute_seconds":2.0,)"
           << R"("trainer/encode_seconds":)" << encode_seconds << ','
           << R"("trainer/bytes_up":)" << bytes_up << ','
           << R"("trainer/messages":)" << messages;
  return std::string(kHeader) + "\n" +
         SampleLine(1e9, "final", counters.str(),
                    R"("trainer/train_loss":0.5)") +
         "\n";
}

TEST(DiffRunsTest, FlagsInjectedEncodeLatencyRegression) {
  auto baseline = ParseRunSeries(TwoRunSeries(1.0, 1000.0));
  auto candidate = ParseRunSeries(TwoRunSeries(2.0, 1000.0));  // 2x encode.
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());

  DiffOptions options;
  options.threshold = 0.25;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  EXPECT_GE(diff.metrics_compared, 3u);
  ASSERT_FALSE(diff.flagged.empty());
  EXPECT_TRUE(diff.HasRegression());
  const MetricDelta* encode_delta = nullptr;
  for (const MetricDelta& delta : diff.flagged) {
    if (delta.name == "trainer/encode_seconds") encode_delta = &delta;
  }
  ASSERT_NE(encode_delta, nullptr);
  EXPECT_TRUE(encode_delta->timing);
  EXPECT_TRUE(encode_delta->regression);
  EXPECT_DOUBLE_EQ(encode_delta->RelChange(), 1.0);

  const std::string rendered = RenderDiff(diff, options);
  EXPECT_NE(rendered.find("trainer/encode_seconds"), std::string::npos);
}

TEST(DiffRunsTest, IgnoreTimesSkipsWallClockMetrics) {
  auto baseline = ParseRunSeries(TwoRunSeries(1.0, 1000.0));
  auto candidate = ParseRunSeries(TwoRunSeries(2.0, 1000.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  EXPECT_TRUE(diff.flagged.empty());
  EXPECT_FALSE(diff.HasRegression());
}

TEST(DiffRunsTest, DeterministicCountDriftIsAlwaysARegression) {
  // trainer/messages is a neutral count: exactly reproducible for a fixed
  // seed, so drift in *either* direction is a regression — even a drop,
  // and even under --ignore-times.
  auto baseline = ParseRunSeries(TwoRunSeries(1.0, 1000.0, 640.0));
  auto candidate = ParseRunSeries(TwoRunSeries(1.0, 1000.0, 320.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  ASSERT_EQ(diff.flagged.size(), 1u);
  EXPECT_EQ(diff.flagged[0].name, "trainer/messages");
  EXPECT_TRUE(diff.HasRegression());
}

TEST(DiffRunsTest, FewerBytesIsAChangeButNotARegression) {
  // bytes_up is higher-is-worse: sending *less* is flagged (it changed
  // beyond the threshold) but does not fail the gate.
  auto baseline = ParseRunSeries(TwoRunSeries(1.0, 4000.0));
  auto candidate = ParseRunSeries(TwoRunSeries(1.0, 1000.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  ASSERT_EQ(diff.flagged.size(), 1u);
  EXPECT_EQ(diff.flagged[0].name, "trainer/bytes_up");
  EXPECT_FALSE(diff.flagged[0].regression);
  EXPECT_FALSE(diff.HasRegression());
}

TEST(DiffRunsTest, IdenticalRunsPassClean) {
  auto baseline = ParseRunSeries(TwoRunSeries(1.0, 1000.0));
  auto candidate = ParseRunSeries(TwoRunSeries(1.0, 1000.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  const DiffResult diff = DiffRuns(*baseline, *candidate, DiffOptions{});
  EXPECT_TRUE(diff.flagged.empty());
  EXPECT_FALSE(diff.HasRegression());
}

TEST(DiffRunsTest, MembershipEventDriftIsARegression) {
  // Membership events are seeded deterministic counts (satellite: the
  // A/B diff must treat them like messages, not like timings): drift in
  // either direction fails the gate, even under --ignore-times.
  const auto series = [](double joins, double handoff_bytes) {
    std::ostringstream counters;
    counters << R"("trainer/messages":640,)"
             << R"("membership/events{kind=join}":)" << joins << ','
             << R"("membership/handoff_bytes":)" << handoff_bytes;
    return std::string(kHeader) + "\n" +
           SampleLine(1e9, "final", counters.str(), "") + "\n";
  };
  auto baseline = ParseRunSeries(series(4.0, 4096.0));
  auto fewer_joins = ParseRunSeries(series(2.0, 4096.0));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(fewer_joins.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *fewer_joins, options);
  ASSERT_EQ(diff.flagged.size(), 1u);
  EXPECT_EQ(diff.flagged[0].name, "membership/events{kind=join}");
  EXPECT_TRUE(diff.flagged[0].regression);  // Drift DOWN still fails.
  EXPECT_TRUE(diff.HasRegression());

  // Handoff bytes are higher-is-worse traffic: shrinking them is a
  // flagged change but not a gate failure.
  auto cheaper = ParseRunSeries(series(4.0, 1024.0));
  ASSERT_TRUE(cheaper.ok());
  const DiffResult bytes_diff = DiffRuns(*baseline, *cheaper, options);
  ASSERT_EQ(bytes_diff.flagged.size(), 1u);
  EXPECT_EQ(bytes_diff.flagged[0].name, "membership/handoff_bytes");
  EXPECT_FALSE(bytes_diff.flagged[0].regression);
  EXPECT_FALSE(bytes_diff.HasRegression());
}

// ---------------------------------------------------------------------------
// SLO gate: sketch-quantile diffs with sketch-error-aware thresholds.

/// One sketch entry for a hand-built sample's "sketches" object.
std::string SketchEntry(const std::string& name, double count, double p99,
                        double p99_lo, double p99_hi, double wp99 = 0.02) {
  std::ostringstream out;
  out << '"' << name << R"(":{"count":)" << count
      << R"(,"min":0.001,"max":0.1,"eps":0.0156,)"
      << R"("p50":0.01,"p50_lo":0.009,"p50_hi":0.011,)"
      << R"("p90":0.015,"p90_lo":0.014,"p90_hi":0.016,)"
      << R"("p99":)" << p99 << R"(,"p99_lo":)" << p99_lo << R"(,"p99_hi":)"
      << p99_hi << ','
      << R"("p999":0.05,"p999_lo":0.049,"p999_hi":0.051,)"
      << R"("wp50":0.01,"wp50_lo":0.009,"wp50_hi":0.011,)"
      << R"("wp99":)" << wp99 << R"(,"wp99_lo":)" << wp99 * 0.9
      << R"(,"wp99_hi":)" << wp99 * 1.1
      << R"(,"window_count":)" << count << R"(,"windows":2})";
  return out.str();
}

std::string SloSeries(const std::string& sketches,
                      const std::string& counters = "",
                      const std::string& reason = "final") {
  std::ostringstream out;
  out << kHeader << "\n"
      << R"({"type":"sample","t_ns":1e9,"reason":")" << reason
      << R"(","dropped_trace_events":0,"counters":{)" << counters
      << R"(},"gauges":{},"histograms":{},"sketches":{)" << sketches
      << "}}\n";
  return out.str();
}

TEST(SloGateTest, FlagsQuantileDriftBeyondCombinedErrorBound) {
  // "modeled" sketches are deterministic modeled seconds: compared even
  // under --ignore-times. Candidate's p99 at q-2ε (0.038) clears the
  // baseline's at q+2ε (0.032) — a drift no sketch error can explain.
  auto baseline = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 640, 0.030, 0.028,
                  0.032)));
  auto candidate = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 640, 0.040, 0.038,
                  0.042)));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  ASSERT_EQ(diff.slo.size(), 1u);
  EXPECT_EQ(diff.slo[0].name, "trainer/push_modeled_seconds");
  EXPECT_EQ(diff.slo[0].quantile, "p99");
  EXPECT_TRUE(diff.slo[0].regression);
  EXPECT_TRUE(diff.HasRegression());
  const std::string rendered = RenderDiff(diff, options);
  EXPECT_NE(rendered.find("SLO REGRESSION"), std::string::npos);
  EXPECT_NE(rendered.find("trainer/push_modeled_seconds"),
            std::string::npos);
}

TEST(SloGateTest, ToleratesDriftWithinErrorBound) {
  // Candidate p99 moved up, but its q-2ε value (0.031) still overlaps the
  // baseline's q+2ε (0.032): within what two ±ε sketches can disagree by,
  // so the gate must not fire on its own estimation noise.
  auto baseline = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 640, 0.030, 0.028,
                  0.032)));
  auto candidate = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 640, 0.033, 0.031,
                  0.035)));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  EXPECT_TRUE(diff.slo.empty());
  EXPECT_FALSE(diff.HasRegression());
  EXPECT_GE(diff.metrics_compared, 1u);
}

TEST(SloGateTest, IgnoreTimesSkipsMeasuredLatencySketches) {
  // Measured wall-clock sketches follow the same --ignore-times rule as
  // wall-clock counters: arbitrary drift must not be compared.
  auto baseline = ParseRunSeries(SloSeries(
      SketchEntry("trainer/compute_latency_seconds", 640, 0.01, 0.009,
                  0.011)));
  auto candidate = ParseRunSeries(SloSeries(
      SketchEntry("trainer/compute_latency_seconds", 640, 10.0, 9.0,
                  11.0)));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  EXPECT_TRUE(diff.slo.empty());
  EXPECT_FALSE(diff.HasRegression());

  // Without --ignore-times the same drift fires.
  options.ignore_times = false;
  const DiffResult live = DiffRuns(*baseline, *candidate, options);
  ASSERT_FALSE(live.slo.empty());
  EXPECT_TRUE(live.HasRegression());
}

TEST(SloGateTest, RecordCountDriftIsARegression) {
  // Record counts are fixed-seed deterministic; drift means the lane
  // cadence changed (or a sketch vanished) — flagged before quantiles.
  auto baseline = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 640, 0.030, 0.028,
                  0.032)));
  auto candidate = ParseRunSeries(SloSeries(
      SketchEntry("trainer/push_modeled_seconds", 320, 0.030, 0.028,
                  0.032)));
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(candidate.ok());
  DiffOptions options;
  options.ignore_times = true;
  const DiffResult diff = DiffRuns(*baseline, *candidate, options);
  ASSERT_EQ(diff.slo.size(), 1u);
  EXPECT_EQ(diff.slo[0].quantile, "count");
  EXPECT_TRUE(diff.slo[0].regression);
  EXPECT_TRUE(diff.HasRegression());
}

TEST(RunReportTest, P99StragglerColumnsFromWorkerSketches) {
  // Worker 1's windowed p99 dominates: it is the p99 straggler even
  // though the mean-based columns (equal worker_seconds) see no skew.
  const std::string counters =
      R"("trainer/compute_seconds":2.0,)"
      R"("trainer/worker_seconds{worker=0,phase=compute}":1.0,)"
      R"("trainer/worker_seconds{worker=1,phase=compute}":1.0)";
  const std::string sketches =
      SketchEntry("trainer/compute_latency_seconds{worker=0}", 320, 0.012,
                  0.011, 0.013, /*wp99=*/0.01) +
      "," +
      SketchEntry("trainer/compute_latency_seconds{worker=1}", 320, 0.05,
                  0.045, 0.055, /*wp99=*/0.05);
  auto series = ParseRunSeries(SloSeries(sketches, counters, "epoch"));
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  const RunReport report = BuildRunReport(*series);
  ASSERT_EQ(report.epochs.size(), 1u);
  const EpochRow& row = report.epochs[0];
  EXPECT_EQ(row.p99_straggler_worker, 1);
  EXPECT_DOUBLE_EQ(row.p99_straggler_seconds, 0.05);
  EXPECT_DOUBLE_EQ(row.mean_worker_p99, 0.03);
  EXPECT_NEAR(row.P99Imbalance(), 0.05 / 0.03, 1e-9);
  ASSERT_EQ(report.sketches.size(), 2u);  // Final sample's sketches.

  // With sketch summaries the rendering uses the p99 columns.
  const std::string p99_render = RenderRunReport(report);
  EXPECT_NE(p99_render.find("p99-strag"), std::string::npos);
  EXPECT_EQ(p99_render.find("straggler  imbalance"), std::string::npos);
  EXPECT_NE(p99_render.find("w1"), std::string::npos);
  EXPECT_NE(p99_render.find("latency sketches"), std::string::npos);
}

TEST(RunReportTest, CodecLatencySketchesRenderInTimeUnits) {
  // Codec latency sketches record nanoseconds; every other sketch
  // records seconds. Both must render as times.
  const std::string counters =
      R"("codec/encode_calls{codec=sk,worker=0}":4)";
  const std::string sketches =
      SketchEntry("codec/encode_ns{codec=sk}", 4, /*p99=*/306009.0,
                  300000.0, 310000.0) +
      "," + SketchEntry("trainer/compute_latency_seconds{worker=0}", 4, 0.5,
                        0.4, 0.6);
  auto series = ParseRunSeries(SloSeries(sketches, counters));
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  const RunReport report = BuildRunReport(*series);
  ASSERT_EQ(report.codecs.size(), 1u);
  EXPECT_DOUBLE_EQ(report.codecs[0].p99_encode_ns, 306009.0);

  const std::string text = RenderRunReport(report);
  EXPECT_NE(text.find("encode p50 0.0 us p99 306.0 us"), std::string::npos)
      << text;
  EXPECT_NE(text.find("306.0 us  [300.0 us, 310.0 us]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("500.000 ms  [400.000 ms, 600.000 ms]"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("306009"), std::string::npos) << text;
}

TEST(MetricsDumpTest, SketchLinesPrintCountAndQuantiles) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"trainer/epochs", 2.0});
  obs::SketchHistogramSummary sketch;
  sketch.name = "trainer/compute_latency_seconds{worker=0}";
  sketch.count = 40;
  sketch.p50.value = 0.0025;
  sketch.p99.value = 0.0095;
  snap.sketches.push_back(sketch);
  std::ostringstream dump;
  snap.WriteJsonl(dump);

  auto text = SummarizeMetricsJsonl(dump.str());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("  trainer/epochs: 2\n"), std::string::npos) << *text;
  EXPECT_NE(text->find("  trainer/compute_latency_seconds{worker=0}: count "
                       "40, p50 0.0025, p99 0.0095\n"),
            std::string::npos)
      << *text;
}

// ---------------------------------------------------------------------------
// Trace summary.

TEST(TraceSummaryTest, SummarizesChromeTraceWithDroppedFooter) {
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  obs::TraceLog::Global().Reset();
  {
    obs::TraceSpan outer("trainer", "epoch");
    obs::TraceSpan inner("codec", "encode/sketchml");
  }
  { obs::TraceSpan again("codec", "encode/sketchml"); }
  std::ostringstream out;
  obs::TraceLog::Global().WriteChromeTrace(out);
  obs::TraceLog::Global().Reset();
  obs::SetTracingEnabled(was_tracing);

  auto trace = ParseChromeTrace(out.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const TraceSummary summary = SummarizeTrace(*trace);
  EXPECT_DOUBLE_EQ(summary.dropped_events, 0.0);
  const TraceSummary::Row* encode_row = nullptr;
  for (const auto& row : summary.rows) {
    if (row.name == "encode/sketchml") encode_row = &row;
  }
  ASSERT_NE(encode_row, nullptr);
  EXPECT_EQ(encode_row->category, "codec");
  EXPECT_EQ(encode_row->count, 2u);
  EXPECT_GT(encode_row->total_us, 0.0);
  EXPECT_GE(encode_row->max_us, encode_row->total_us / 2.0);
  EXPECT_NE(RenderTraceSummary(summary).find("encode/sketchml"),
            std::string::npos);
}

TEST(TraceSummaryTest, RejectsNonTraceJson) {
  EXPECT_FALSE(ParseChromeTrace("{}").ok());
  EXPECT_FALSE(ParseChromeTrace("not json").ok());
}

}  // namespace
}  // namespace sketchml::dist
