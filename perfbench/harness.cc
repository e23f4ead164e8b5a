#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/metrics_registry.h"
#include "common/obs.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "dist/trace_analysis.h"

namespace perfbench {

using sketchml::common::Status;
using sketchml::common::Stopwatch;
namespace dist = sketchml::dist;
namespace obs = sketchml::obs;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

sketchml::common::Result<dist::ParsedTrace> CollectTrace() {
  std::ostringstream json;
  obs::TraceLog::Global().WriteChromeTrace(json);
  obs::TraceLog::Global().Reset();
  SKETCHML_ASSIGN_OR_RETURN(dist::ParsedTrace trace,
                            dist::ParseChromeTrace(json.str()));
  if (trace.dropped_events > 0) {
    return Status::Internal("trace dropped " +
                            std::to_string(trace.dropped_events) + " events");
  }
  return trace;
}

namespace {

/// The highest whole percentile of `values` that has at least
/// `kTailBeyond` samples above it (nearest-rank).
constexpr size_t kTailBeyond = 10;
struct Tail {
  double value = 0.0;
  int percentile = 100;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= kTailBeyond) {
    tail.value = values.back();
    return tail;
  }
  tail.percentile = static_cast<int>(100 * (n - kTailBeyond) / n);
  const size_t rank = std::max<size_t>(
      1, (static_cast<size_t>(tail.percentile) * n + 99) / 100);
  tail.value = values[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

void AddUp(const IterationResult& r, IterationResult* sum) {
  sum->samples += r.samples;
  sum->sim_seconds += r.sim_seconds;
  sum->bytes_up += r.bytes_up;
  sum->bytes_down += r.bytes_down;
  sum->pairs_up += r.pairs_up;
  sum->messages += r.messages;
  sum->network_seconds += r.network_seconds;
  sum->recovery_error_l1 += r.recovery_error_l1;
  sum->recovery_ref_l1 += r.recovery_ref_l1;
}

/// Seed of input set `set`: the workload derives its data and codec
/// seeds from it, so one --seed fixes every input of the run.
uint64_t InputSeed(uint64_t seed, int set) {
  return sketchml::common::LaneSeed(seed, static_cast<uint64_t>(set));
}

}  // namespace

Report RunEndToEnd(const WorkloadSpec& spec, const Options& options) {
  Report report;
  const int per_round = options.short_mode ? spec.short_round_iterations
                                           : spec.round_iterations;
  const int sets = options.short_mode ? 1 : spec.input_sets;
  std::vector<double> setup_seconds, iter_seconds, sim_seconds;
  std::vector<double> round_throughput;  // Samples per wall second.
  // Each input set's traffic and loss on its first round; every later
  // round on the same set replays it and must reproduce them exactly.
  std::vector<IterationResult> first_sum(sets);
  std::vector<double> first_loss(sets, 0.0);
  Stopwatch run;
  for (int round = 0;
       round <= sets ||
       (!options.short_mode && run.ElapsedSeconds() < options.seconds);
       ++round) {
    const int set = round % sets;
    Stopwatch watch;
    std::unique_ptr<Workload> workload =
        spec.make(InputSeed(options.seed, set));
    setup_seconds.push_back(watch.ElapsedSeconds());

    IterationResult sum;
    double wall_sum = 0.0;
    bool round_ok = true;
    for (int i = 0; i < per_round; ++i) {
      ++report.attempted;
      IterationResult r;
      watch.Restart();
      const Status status = workload->Iterate(&r);
      const double wall = watch.ElapsedSeconds();
      if (!status.ok()) {
        report.Fail("round " + std::to_string(round) + " iteration " +
                    std::to_string(i) + ": " + status.ToString());
        round_ok = false;
        break;
      }
      iter_seconds.push_back(wall);
      sim_seconds.push_back(r.sim_seconds);
      wall_sum += wall;
      AddUp(r, &sum);
    }
    if (!round_ok) continue;
    round_throughput.push_back(sum.samples / wall_sum);

    const double loss = workload->Loss();
    if (!std::isfinite(loss)) {
      report.Fail("round " + std::to_string(round) + ": non-finite loss");
    }
    if (round < sets) {
      first_sum[set] = sum;
      first_loss[set] = loss;
    } else if (sum.bytes_up != first_sum[set].bytes_up ||
               sum.bytes_down != first_sum[set].bytes_down ||
               loss != first_loss[set]) {
      report.Fail("round " + std::to_string(round) + " did not replay input "
                  "set " + std::to_string(set) +
                  " (bytes up/down or loss differ)");
    }
  }

  IterationResult traffic;
  double loss_sum = 0.0;
  for (int set = 0; set < sets; ++set) {
    AddUp(first_sum[set], &traffic);
    loss_sum += first_loss[set];
  }
  const Tail tail = TailOf(iter_seconds);
  report.Add("samples_per_s", Median(round_throughput), "1/s");
  report.Add("iter_ms_p50", 1e3 * Median(iter_seconds), "ms");
  report.Add("iter_ms_tail", 1e3 * tail.value, "ms");
  report.Add("sim_s_per_iter", Median(sim_seconds), "s");
  report.Add("up_bytes_per_pair",
             traffic.pairs_up > 0 ? static_cast<double>(traffic.bytes_up) /
                                        static_cast<double>(traffic.pairs_up)
                                  : 0.0,
             "bytes");
  report.Add("final_loss", loss_sum / sets, "loss");
  report.Add("setup_s", Median(setup_seconds), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");

  char line[256];
  std::snprintf(line, sizeof(line),
                "iter_ms_tail is p%d of %zu iterations (%zu beyond it); "
                "%zu rounds of %d iterations over %d input sets; final_loss "
                "is the mean over the sets after %d iterations",
                tail.percentile, iter_seconds.size(), tail.beyond,
                setup_seconds.size(), per_round, sets, per_round);
  report.notes.push_back(line);
  return report;
}

namespace {

/// Span totals of a traced phase, accumulated over trace collections.
struct TraceTotals {
  uint64_t iterations = 0;    // ("bench", "iteration") spans.
  double iteration_us = 0.0;
  uint64_t epochs = 0;        // Critical-path units (trainer epochs).
  double epoch_us = 0.0;
  dist::PhaseAttribution cp;
  double driver_codec_us = 0.0;    // Codec spans under "broadcast".
  double straggler_wait_us = 0.0;  // Σ_batch last push end - median.
  double grad_us = 0.0;
  double update_us = 0.0;
  double encode_us = 0.0, encode_pairs = 0.0;
  double decode_us = 0.0, decode_pairs = 0.0;
};

Status Accumulate(const dist::ParsedTrace& trace, TraceTotals* t) {
  std::unordered_map<uint64_t, const dist::TraceSpanRecord*> by_id;
  for (const auto& span : trace.spans) {
    if (span.span_id != 0) by_id.emplace(span.span_id, &span);
  }
  std::unordered_map<uint64_t, std::vector<double>> push_ends;  // By batch.
  bool trainer = false;
  uint64_t iterations = 0;
  double iteration_us = 0.0;
  dist::PhaseAttribution own;  // From the benchmark's own ml/core spans.
  for (const auto& span : trace.spans) {
    const auto parent_it = by_id.find(span.parent_span_id);
    const dist::TraceSpanRecord* parent =
        parent_it == by_id.end() ? nullptr : parent_it->second;
    if (span.category == "bench") {
      if (span.name == "iteration") {
        ++iterations;
        iteration_us += span.dur_us;
      } else if (span.name == "ml/grad") {
        own.compute_us += span.dur_us;
        t->grad_us += span.dur_us;
      } else if (span.name == "ml/apply_sgd") {
        own.update_us += span.dur_us;
        t->update_us += span.dur_us;
      } else if (span.name == "core/encode") {
        own.encode_us += span.dur_us;
      } else if (span.name == "core/decode") {
        own.decode_us += span.dur_us;
      }
    } else if (span.category == "codec") {
      if (span.name.starts_with("encode/")) {
        t->encode_us += span.dur_us;
        t->encode_pairs += span.ArgOr("pairs", 0.0);
      } else if (span.name.starts_with("decode/")) {
        t->decode_us += span.dur_us;
        t->decode_pairs += span.ArgOr("pairs", 0.0);
      }
      if (parent != nullptr && parent->category == "trainer" &&
          parent->name == "broadcast") {
        t->driver_codec_us += span.dur_us;
      }
    } else if (span.category == "trainer") {
      if (span.name == "epoch") {
        trainer = true;
      } else if (span.name == "compute") {
        t->grad_us += span.dur_us;
      } else if (span.name == "update") {
        t->update_us += span.dur_us;
      } else if (span.name == "push") {
        push_ends[span.parent_span_id].push_back(span.end_us());
      }
    }
  }
  for (const auto& [batch, ends] : push_ends) {
    t->straggler_wait_us +=
        *std::max_element(ends.begin(), ends.end()) - Median(ends);
  }
  t->iterations += iterations;
  t->iteration_us += iteration_us;

  if (!trainer) {
    // A serial loop without trainer spans: its critical path is the
    // iteration itself, partitioned by the benchmark's own layer spans.
    own.other_us = iteration_us - (own.compute_us + own.encode_us +
                                   own.decode_us + own.update_us);
    t->epochs += iterations;
    t->epoch_us += iteration_us;
    t->cp.compute_us += own.compute_us;
    t->cp.encode_us += own.encode_us;
    t->cp.decode_us += own.decode_us;
    t->cp.update_us += own.update_us;
    t->cp.other_us += own.other_us;
    return Status::Ok();
  }

  SKETCHML_ASSIGN_OR_RETURN(const dist::CriticalPathReport report,
                            dist::AnalyzeTrace(trace));
  if (report.orphan_spans > 0 || report.multi_root_traces > 0) {
    return Status::Internal("causal trace incomplete: " +
                            std::to_string(report.orphan_spans) +
                            " orphan spans");
  }
  // Reconciliation: the critical-path phases partition the traced epoch
  // wall time exactly.
  const double attributed = report.attribution.TotalUs();
  if (std::abs(attributed - report.epoch_total_us) >
      1e-6 * report.epoch_total_us) {
    return Status::Internal(
        "critical-path phases sum to " + std::to_string(attributed) +
        " us, traced epochs to " + std::to_string(report.epoch_total_us));
  }
  if (report.epoch_total_us > iteration_us) {
    return Status::Internal("traced epochs outlast the harness iterations");
  }
  t->epochs += report.epochs;
  t->epoch_us += report.epoch_total_us;
  t->cp.compute_us += report.attribution.compute_us;
  t->cp.encode_us += report.attribution.encode_us;
  t->cp.decode_us += report.attribution.decode_us;
  t->cp.aggregate_us += report.attribution.aggregate_us;
  t->cp.update_us += report.attribution.update_us;
  t->cp.other_us += report.attribution.other_us;
  return Status::Ok();
}

/// Σ sum of every histogram slot whose base name is `base`.
double HistogramSum(const obs::MetricsSnapshot& snap, std::string_view base) {
  double sum = 0.0;
  for (const auto& h : snap.histograms) {
    if (obs::ParseMetricName(h.name).base == base) sum += h.sum;
  }
  return sum;
}

void AddLayerMetrics(const TraceTotals& t, const IterationResult& sums,
                     const obs::MetricsSnapshot& snap, int threads,
                     double untraced_median, double traced_median,
                     Report* report) {
  const double epochs = std::max<double>(1.0, static_cast<double>(t.epochs));
  const double iterations =
      std::max<double>(1.0, static_cast<double>(t.iterations));
  const auto ms_per_epoch = [&](double us) { return us / epochs / 1e3; };
  report->Add("dist.cp_compute_ms", ms_per_epoch(t.cp.compute_us), "ms");
  report->Add("dist.cp_encode_ms", ms_per_epoch(t.cp.encode_us), "ms");
  report->Add("dist.cp_decode_ms", ms_per_epoch(t.cp.decode_us), "ms");
  report->Add("dist.cp_aggregate_ms", ms_per_epoch(t.cp.aggregate_us), "ms");
  report->Add("dist.cp_update_ms", ms_per_epoch(t.cp.update_us), "ms");
  report->Add("dist.cp_other_ms", ms_per_epoch(t.cp.other_us), "ms");
  report->Add("dist.cp_epoch_ms", ms_per_epoch(t.epoch_us), "ms");
  report->Add("dist.cp_unattributed_pct",
              t.iteration_us > 0.0
                  ? 100.0 * (t.iteration_us - t.epoch_us) / t.iteration_us
                  : 0.0,
              "%");
  report->Add("dist.driver_codec_ms", ms_per_epoch(t.driver_codec_us), "ms");
  report->Add("dist.straggler_wait_ms", ms_per_epoch(t.straggler_wait_us),
              "ms");
  report->Add("dist.up_bytes_per_epoch",
              static_cast<double>(sums.bytes_up) / iterations, "bytes");
  report->Add("dist.down_bytes_per_epoch",
              static_cast<double>(sums.bytes_down) / iterations, "bytes");
  report->Add("dist.messages_per_epoch",
              static_cast<double>(sums.messages) / iterations, "count");
  report->Add("dist.modeled_network_s_per_epoch",
              sums.network_seconds / iterations, "s");
  // The trainer publishes recovery error as counters; a workload without
  // a trainer measures it itself. One of the two sources is always zero.
  const double err = snap.SumCounters("trainer/recovery_error_l1", {}) +
                     sums.recovery_error_l1;
  const double ref = snap.SumCounters("trainer/recovery_ref_l1", {}) +
                     sums.recovery_ref_l1;
  report->Add("dist.recovery_rel_l1", ref > 0.0 ? err / ref : 0.0, "ratio");
  report->Add("dist.trace_overhead_pct",
              untraced_median > 0.0
                  ? 100.0 * (traced_median / untraced_median - 1.0)
                  : 0.0,
              "%");

  const double run_ns = HistogramSum(snap, "threadpool/task_run_ns");
  report->Add("common.pool_tasks_per_epoch",
              snap.SumCounters("threadpool/tasks", {}) / epochs, "count");
  report->Add("common.pool_wait_ms_per_epoch",
              HistogramSum(snap, "threadpool/task_wait_ns") / epochs / 1e6,
              "ms");
  report->Add("common.pool_run_ms_per_epoch", run_ns / epochs / 1e6, "ms");
  report->Add("common.pool_busy_share",
              t.iteration_us > 0.0
                  ? run_ns / 1e3 / (threads * t.iteration_us)
                  : 0.0,
              "ratio");

  report->Add("ml.grad_ms_per_iter", t.grad_us / iterations / 1e3, "ms");
  report->Add("ml.grad_pairs_per_msg",
              sums.messages > 0 ? static_cast<double>(sums.pairs_up) /
                                      static_cast<double>(sums.messages)
                                : 0.0,
              "pairs");
  report->Add("ml.update_ms_per_iter", t.update_us / iterations / 1e3, "ms");

  report->Add("core.encode_ms_per_iter", t.encode_us / iterations / 1e3,
              "ms");
  report->Add("core.decode_ms_per_iter", t.decode_us / iterations / 1e3,
              "ms");
  // Pairs per microsecond is millions of pairs per second.
  report->Add("core.encode_mpairs_per_s",
              t.encode_us > 0.0 ? t.encode_pairs / t.encode_us : 0.0,
              "Mpairs/s");
  report->Add("core.decode_mpairs_per_s",
              t.decode_us > 0.0 ? t.decode_pairs / t.decode_us : 0.0,
              "Mpairs/s");
}

}  // namespace

Report RunTraced(const WorkloadSpec& spec, const Options& options) {
  Report report;
  const int per_round = options.short_mode ? spec.short_round_iterations
                                           : spec.round_iterations;
  const bool timed = !options.short_mode;
  Stopwatch run;
  Stopwatch watch;

  // Phase 1, untraced: the baseline the tracing overhead is measured
  // against. Its own trainer, so both phases start from the same state.
  std::vector<double> untraced;
  {
    std::unique_ptr<Workload> workload =
        spec.make(InputSeed(options.seed, 0));
    while (static_cast<int>(untraced.size()) < per_round ||
           (timed && run.ElapsedSeconds() < 0.25 * options.seconds)) {
      ++report.attempted;
      IterationResult r;
      watch.Restart();
      const Status status = workload->Iterate(&r);
      if (!status.ok()) {
        report.Fail("untraced iteration: " + status.ToString());
        break;
      }
      untraced.push_back(watch.ElapsedSeconds());
    }
  }

  // Phase 2, traced. Metrics are on before construction so the trainer
  // resolves its per-entity counters; the registry is zeroed after.
  obs::SetMetricsEnabled(true);
  std::unique_ptr<Workload> workload =
      spec.make(InputSeed(options.seed, 0));
  obs::MetricsRegistry::Global().Reset();
  obs::TraceLog::Global().Reset();
  TraceTotals totals;
  IterationResult sums;
  std::vector<double> traced;
  bool ok = true;
  do {
    obs::SetTracingEnabled(true);
    for (int i = 0; i < per_round && ok; ++i) {
      ++report.attempted;
      IterationResult r;
      Status status;
      watch.Restart();
      {
        obs::TraceSpan span("bench", "iteration");
        status = workload->Iterate(&r);
      }
      const double wall = watch.ElapsedSeconds();
      if (!status.ok()) {
        report.Fail("traced iteration: " + status.ToString());
        ok = false;
        break;
      }
      traced.push_back(wall);
      AddUp(r, &sums);
    }
    obs::SetTracingEnabled(false);
    auto trace = CollectTrace();
    const Status accumulated =
        trace.ok() ? Accumulate(*trace, &totals) : trace.status();
    if (!accumulated.ok()) {
      report.Fail("trace analysis: " + accumulated.ToString());
      ok = false;
    }
  } while (ok && timed && run.ElapsedSeconds() < 0.75 * options.seconds);
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  obs::SetMetricsEnabled(false);

  AddLayerMetrics(totals, sums, snap, spec.threads, Median(untraced),
                  Median(traced), &report);
  const std::vector<sketchml::common::SparseGradient> inputs =
      workload->LayerInputs();
  workload.reset();

  // Phase 3: the compress/sketch sub-layers on this run's own gradients.
  MeasureSublayers(inputs, InputSeed(options.seed, 0),
                   std::max(0.0, options.seconds - run.ElapsedSeconds()),
                   options.short_mode, &report);

  char line[256];
  std::snprintf(line, sizeof(line),
                "traced %llu iterations (%llu critical-path epochs), "
                "untraced baseline %zu iterations",
                static_cast<unsigned long long>(totals.iterations),
                static_cast<unsigned long long>(totals.epochs),
                untraced.size());
  report.notes.push_back(line);
  return report;
}

}  // namespace perfbench
