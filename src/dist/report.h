#ifndef SKETCHML_DIST_REPORT_H_
#define SKETCHML_DIST_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/result.h"
#include "common/status.h"
#include "dist/trace_analysis.h"

namespace sketchml::dist {

/// Parsed form of the observability dumps (`*.series.jsonl` from
/// MetricsSampler, `*.metrics.jsonl` snapshots, `*.trace.json` Chrome
/// traces) plus the analyses `sketchml_report` runs over them: per-worker
/// phase breakdown (the paper's Figure 9 view), per-epoch straggler
/// summary, per-codec compression/recovery summary, and an A/B diff used
/// as a bench-regression gate.

/// Summary of one histogram inside a time-series sample (the sampler
/// writes quantiles, not raw buckets).
struct HistogramSummary {
  std::string name;  // Canonical, possibly labeled.
  double count = 0.0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  double Mean() const { return count == 0.0 ? 0.0 : sum / count; }
};

/// Summary of one sketch-backed histogram inside a sample: KLL quantiles
/// with their error windows (see SketchHistogramSummary in the obs
/// layer). `pXX_lo`/`pXX_hi` are the values at rank q∓2ε — the interval
/// the true order statistic lies in — so A/B diffs can require a
/// regression to exceed the sketch's own error bound before firing.
struct SketchSummary {
  std::string name;  // Canonical, possibly labeled.
  double count = 0.0;
  double min = 0.0;
  double max = 0.0;
  double eps = 0.0;
  double p50 = 0.0, p50_lo = 0.0, p50_hi = 0.0;
  double p90 = 0.0, p90_lo = 0.0, p90_hi = 0.0;
  double p99 = 0.0, p99_lo = 0.0, p99_hi = 0.0;
  double p999 = 0.0, p999_lo = 0.0, p999_hi = 0.0;
  // Windowed view (ring of per-epoch sub-sketches plus the live tail).
  double window_count = 0.0;
  double windows = 0.0;
  double wp50 = 0.0, wp50_lo = 0.0, wp50_hi = 0.0;
  double wp99 = 0.0, wp99_lo = 0.0, wp99_hi = 0.0;
};

/// One snapshot line of a `*.series.jsonl` file. Counter values are
/// cumulative since process start; consumers diff successive samples.
struct SeriesSample {
  double t_ns = 0.0;
  std::string reason;  // "interval" | "epoch" | "final".
  double dropped_trace_events = 0.0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSummary> histograms;
  std::vector<SketchSummary> sketches;

  double CounterOr(std::string_view name, double default_value) const;
  double GaugeOr(std::string_view name, double default_value) const;
  const HistogramSummary* FindHistogram(std::string_view name) const;
  const SketchSummary* FindSketch(std::string_view name) const;

  /// Sum of counters with base name `base` whose labels contain all of
  /// `want` — same roll-up rule as MetricsSnapshot::SumCounters.
  double SumCounters(std::string_view base,
                     const obs::MetricLabels& want) const;
};

/// A fully parsed run time-series: header metadata plus samples in file
/// order.
struct RunSeries {
  std::string git_sha;
  std::vector<std::pair<std::string, std::string>> meta;
  std::vector<SeriesSample> samples;

  std::string MetaOr(std::string_view key,
                     std::string_view default_value) const;

  /// The last sample (cumulative totals for the whole run); nullptr when
  /// the series has none.
  const SeriesSample* Final() const;

  /// Samples written at epoch boundaries, in epoch order.
  std::vector<const SeriesSample*> EpochSamples() const;
};

/// Parses the full text of a series file / reads it from disk.
common::Result<RunSeries> ParseRunSeries(std::string_view text);
common::Result<RunSeries> LoadRunSeries(const std::string& path);

/// Per-worker phase totals (seconds already charged with the trainer's
/// mean-per-worker scaling, so rows sum to the aggregate trainer
/// counters).
struct WorkerPhaseRow {
  int worker = 0;
  double compute_seconds = 0.0;
  double encode_seconds = 0.0;
  double recovery_error_l1 = 0.0;
  double recovery_ref_l1 = 0.0;

  double TotalSeconds() const { return compute_seconds + encode_seconds; }
  /// Relative L1 recovery error of this worker's decoded gradients.
  double RecoveryErrorRel() const {
    return recovery_ref_l1 <= 0.0 ? 0.0
                                  : recovery_error_l1 / recovery_ref_l1;
  }
};

/// Per-server-shard totals.
struct ServerPhaseRow {
  int server = 0;
  double decode_seconds = 0.0;
  double gather_seconds = 0.0;  // Modeled per-link transfer time.
  double gather_bytes = 0.0;
};

/// Per-codec compression and latency summary (aggregated across all
/// instances of the codec: driver lane plus per-worker forks).
struct CodecRow {
  std::string codec;
  double encode_calls = 0.0;
  double encode_bytes = 0.0;
  double raw_bytes = 0.0;
  double mean_encode_ns = 0.0;
  double mean_decode_ns = 0.0;
  double p99_encode_ns = 0.0;  // Max p99 across instances.
  double p99_decode_ns = 0.0;

  /// raw/encoded — the paper's compression-ratio convention (>1 good).
  double CompressionRatio() const {
    return encode_bytes <= 0.0 ? 0.0 : raw_bytes / encode_bytes;
  }
};

/// One epoch's phase totals (deltas between successive epoch-boundary
/// samples) and its straggler summary.
struct EpochRow {
  int epoch = 0;
  double compute_seconds = 0.0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  double update_seconds = 0.0;
  double network_seconds = 0.0;
  double train_loss = 0.0;
  double test_loss = 0.0;

  /// Worker with the largest compute+encode time this epoch — with
  /// mean-per-worker charging all workers *should* be equal, so a high
  /// imbalance marks a straggler on the critical path.
  int straggler_worker = -1;
  double straggler_seconds = 0.0;
  double mean_worker_seconds = 0.0;

  /// p99-based straggler detection (the default rendering): worker with
  /// the largest windowed p99 of its per-batch compute latency sketch
  /// this epoch. Mean-based detection hides a worker that is slow on a
  /// few batches but average overall; the tail statistic catches it.
  /// Populated only when the series carries sketch summaries
  /// (p99_straggler_worker stays -1 otherwise and rendering falls back
  /// to the mean columns).
  int p99_straggler_worker = -1;
  double p99_straggler_seconds = 0.0;  // That worker's window p99.
  double mean_worker_p99 = 0.0;        // Mean of all workers' window p99s.

  double Imbalance() const {
    return mean_worker_seconds <= 0.0
               ? 0.0
               : straggler_seconds / mean_worker_seconds;
  }
  double P99Imbalance() const {
    return mean_worker_p99 <= 0.0 ? 0.0
                                  : p99_straggler_seconds / mean_worker_p99;
  }
  double TotalSeconds() const {
    return compute_seconds + encode_seconds + decode_seconds +
           update_seconds + network_seconds;
  }
};

/// Fault-injection / recovery totals for a run (all zero — and the
/// rendered section omitted — when the run had no FaultPlan active).
struct FaultSummary {
  double injected_drop = 0.0;      // fault/injected{kind=drop}
  double injected_corrupt = 0.0;   // fault/injected{kind=corrupt}
  double injected_straggle = 0.0;  // fault/injected{kind=straggle}
  double injected_crash = 0.0;     // fault/injected{kind=crash}
  double injected_stall = 0.0;     // fault/injected{kind=stall}
  double retries = 0.0;            // net/retries
  double retransmit_bytes = 0.0;   // net/retransmit_bytes
  double lost_messages = 0.0;      // net/lost_messages
  double degraded_batches = 0.0;   // trainer/degraded_batches

  double InjectedTotal() const {
    return injected_drop + injected_corrupt + injected_straggle +
           injected_crash + injected_stall;
  }
  bool Any() const {
    return InjectedTotal() > 0.0 || retries > 0.0 || lost_messages > 0.0 ||
           degraded_batches > 0.0;
  }
};

/// Elastic-membership totals for a run (all zero — and the rendered
/// section omitted — when the run had no MembershipPlan active and no
/// checkpoints enabled). Every field is a deterministic count for a
/// fixed seed, so the A/B diff treats any drift as a regression.
struct MembershipSummary {
  double joins = 0.0;             // membership/events{kind=join}
  double leaves = 0.0;            // membership/events{kind=leave}
  double departs = 0.0;           // membership/events{kind=depart}
  double handoff_bytes = 0.0;     // membership/handoff_bytes
  double sync_bytes = 0.0;        // membership/sync_bytes
  double reconfigurations = 0.0;  // membership/reconfigurations
  double rollbacks = 0.0;         // membership/rollbacks
  double checkpoint_bytes = 0.0;  // membership/checkpoint_bytes

  double EventTotal() const { return joins + leaves + departs; }
  bool Any() const {
    return EventTotal() > 0.0 || reconfigurations > 0.0 ||
           rollbacks > 0.0 || checkpoint_bytes > 0.0;
  }
};

/// Everything `sketchml_report` prints for a single run.
struct RunReport {
  std::string git_sha;
  std::vector<std::pair<std::string, std::string>> meta;

  // Aggregate phase totals ("trainer/*_seconds" at the final sample).
  double compute_seconds = 0.0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  double update_seconds = 0.0;
  double network_seconds = 0.0;

  std::vector<WorkerPhaseRow> workers;
  std::vector<ServerPhaseRow> servers;
  std::vector<CodecRow> codecs;
  std::vector<EpochRow> epochs;
  std::vector<SketchSummary> sketches;  // Final sample's sketch quantiles.
  FaultSummary faults;
  MembershipSummary membership;
  double dropped_trace_events = 0.0;
};

/// Builds the report from a parsed series (tolerates missing families —
/// a run recorded without labels still yields the aggregate section).
RunReport BuildRunReport(const RunSeries& series);

/// Human-readable rendering (what the CLI prints).
std::string RenderRunReport(const RunReport& report);

/// A/B comparison of two runs' final samples.
struct DiffOptions {
  /// Relative change that flags a metric: |cand-base| / max(|base|,eps).
  double threshold = 0.25;
  /// Skip wall-clock metrics ("*_seconds", "*_ns"): they vary run to run
  /// on real machines, while byte counts, message counts, and losses are
  /// deterministic for a fixed seed. The golden-snapshot regression gate
  /// runs with this on.
  bool ignore_times = false;
};

struct MetricDelta {
  std::string name;  // Canonical name, "gauge:"-prefixed for gauges.
  double baseline = 0.0;
  double candidate = 0.0;
  bool timing = false;
  /// True when the change is in the harmful direction (more seconds,
  /// more bytes, more error/loss — or *any* change for count-style
  /// metrics, which a fixed-seed run reproduces exactly).
  bool regression = false;

  double RelChange() const;
};

/// One sketch-quantile comparison in the SLO section of an A/B diff.
/// Sketch-error-aware: `regression` fires only when the candidate's
/// lower confidence value exceeds the baseline's upper one — a drift
/// smaller than the combined KLL rank-error windows cannot fire, so the
/// gate never flags its own estimation noise.
struct SloDelta {
  std::string name;     // Sketch name.
  std::string quantile; // "p50" | "p99" | "p999" | "count".
  double baseline = 0.0;
  double candidate = 0.0;
  double baseline_hi = 0.0;  // Baseline value at q+2ε.
  double candidate_lo = 0.0; // Candidate value at q-2ε.
  bool regression = false;
};

struct DiffResult {
  size_t metrics_compared = 0;
  std::vector<MetricDelta> flagged;  // Changes beyond the threshold.
  std::vector<SloDelta> slo;         // Sketch-quantile SLO comparisons
                                     // (flagged entries only).

  bool HasRegression() const;
};

DiffResult DiffRuns(const RunSeries& baseline, const RunSeries& candidate,
                    const DiffOptions& options);
std::string RenderDiff(const DiffResult& diff, const DiffOptions& options);

/// Aggregated view of a parsed Chrome trace (`*.trace.json`, read with
/// LoadChromeTrace): total/max span duration per (category, name), plus
/// the dropped-events footer.
struct TraceSummary {
  struct Row {
    std::string category;
    std::string name;
    uint64_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::vector<Row> rows;  // Sorted by descending total_us.
  double dropped_events = 0.0;
};

TraceSummary SummarizeTrace(const ParsedTrace& trace);
std::string RenderTraceSummary(const TraceSummary& summary);

/// Renders a `*.metrics.jsonl` snapshot dump as a sorted table.
common::Result<std::string> SummarizeMetricsJsonl(std::string_view text);

/// Reads a whole file into a string.
common::Result<std::string> ReadFileToString(const std::string& path);

}  // namespace sketchml::dist

#endif  // SKETCHML_DIST_REPORT_H_
