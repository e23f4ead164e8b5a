#ifndef SKETCHML_COMMON_METRICS_REGISTRY_H_
#define SKETCHML_COMMON_METRICS_REGISTRY_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/obs.h"

namespace sketchml::obs {

/// Ordered key=value label pairs attributing a metric to an entity
/// (worker=3, server=0, codec=sketchml, phase=encode). Labels are part
/// of the metric's identity: each distinct label combination is its own
/// independently sharded slot, so the cardinality must stay small and
/// fixed (entities of the simulated cluster, not per-request values).
/// Keys and values must not contain '{', '}', '=', or ','.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical labeled metric name: "base{k1=v1,k2=v2}" with labels in the
/// given order (an empty list returns `base` unchanged). This string is
/// the registry key, what snapshots carry, and what dumps print.
std::string LabeledName(std::string_view base, const MetricLabels& labels);

/// Splits a canonical labeled name back into its base and labels. Names
/// without a label block parse as {name, {}}.
struct ParsedMetricName {
  std::string base;
  MetricLabels labels;
};
ParsedMetricName ParseMetricName(std::string_view full_name);

/// Value of `key` within `labels`, or "" when absent.
std::string_view LabelValue(const MetricLabels& labels, std::string_view key);

/// True when every pair of `want` appears in `have` (subset match).
bool LabelsMatch(const MetricLabels& have, const MetricLabels& want);

/// Handle to a named monotonically increasing sum. Cheap to copy; `Add`
/// is a no-op until the handle has been obtained from the registry and
/// while `MetricsEnabled()` is false. Values are doubles so byte counts
/// and second sums share one type (integers stay exact below 2^53).
class Counter {
 public:
  Counter() = default;
  void Add(double value) const;
  void Increment() const { Add(1.0); }

 private:
  friend class MetricsRegistry;
  explicit Counter(int id) : id_(id) {}
  int id_ = -1;
};

/// Handle to a named last-value metric with atomic add (for level-style
/// series such as the thread-pool queue depth).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value) const;
  void Add(double delta) const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(int id) : id_(id) {}
  int id_ = -1;
};

/// Handle to a named distribution summarized exactly by count/sum/min/max
/// (sums add across threads, so means merge). It answers no quantiles:
/// a distribution whose tail matters goes on an `obs::SketchHistogram`
/// (src/sketch/sketch_histogram.h), the repo's one quantile instrument.
class Histogram {
 public:
  Histogram() = default;
  void Record(double value) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(int id) : id_(id) {}
  int id_ = -1;
};

/// One estimated quantile from a sketch-backed histogram together with
/// its sketch-error window: the true order statistic at rank `q` lies in
/// [value at q-2ε, value at q+2ε] with high confidence, so `lo`/`hi` are
/// the values a consumer may legally compare against without exceeding
/// the sketch's accuracy (the SLO diff in sketchml_report flags a
/// regression only when candidate `lo` exceeds baseline `hi`).
struct SketchQuantile {
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// JSON-ready summary of one `obs::SketchHistogram` (KLL-backed) slot.
/// Defined here — not in the sketch library — so the sampler and report
/// layers can carry these without a link-time dependency on
/// `sketchml_sketch`; the sketch library fills them in via the
/// `SetSketchSummarySource` seam below.
struct SketchHistogramSummary {
  std::string name;  // Canonical labeled name, same scheme as counters.
  uint64_t count = 0;
  double min = 0.0;  // Meaningful only when count > 0.
  double max = 0.0;
  double eps = 0.0;  // Normalized rank-error bound of the backing sketch.
  SketchQuantile p50, p90, p99, p999;  // Lifetime quantiles.
  // Windowed view: quantiles over the last `windows` retired epochs plus
  // the not-yet-retired tail — "p99 over the last N batches".
  uint64_t window_count = 0;
  int windows = 0;
  SketchQuantile wp50, wp99;
};

/// Seam through which the sketch library publishes sketch-histogram
/// summaries into snapshots. `sketchml_common` cannot link against
/// `sketchml_sketch` (the dependency runs the other way), so the
/// KLL-backed registry installs these hooks when it is first used; until
/// then `CollectSketchSummaries` returns empty and snapshots simply have
/// no `sketches` section.
using SketchSummarySource = std::vector<SketchHistogramSummary> (*)();
void SetSketchSummarySource(SketchSummarySource source);
std::vector<SketchHistogramSummary> CollectSketchSummaries();

/// Companion hook: `MetricsRegistry::Reset()` also clears sketch slots so
/// tests and benches that reset metrics get a clean telemetry state.
using SketchResetHook = void (*)();
void SetSketchResetHook(SketchResetHook hook);

/// Writes a summary's JSON fields without enclosing braces: `"count"`,
/// `"min"`, `"max"`, `"eps"`, each quantile with its `_lo`/`_hi`
/// bracket, then `"window_count"` and `"windows"`. The metrics dump and
/// the series sampler both write sketches through it.
void AppendSketchSummaryFields(std::ostream& out,
                               const SketchHistogramSummary& s);

/// Point-in-time aggregation of every registered metric (all thread
/// shards summed). Plain data: safe to copy, diff, and serialize.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    double value = 0.0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // Meaningful only when count > 0.
    double max = 0.0;

    /// Mean recorded value (0 when empty).
    double Mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SketchHistogramSummary> sketches;

  /// Value of the named counter/gauge, 0 when absent. `name` is the full
  /// canonical name (use `LabeledName` for labeled metrics).
  double CounterValueOf(std::string_view name) const;
  double GaugeValueOf(std::string_view name) const;
  const HistogramValue* FindHistogram(std::string_view name) const;
  const SketchHistogramSummary* FindSketch(std::string_view name) const;

  /// Sum of every counter whose base name is `base` and whose labels
  /// contain all of `want` (subset match; `{}` matches every instance of
  /// `base`, labeled or not). This is how per-entity slices roll back up:
  /// SumCounters("trainer/worker_seconds", {{"phase", "compute"}}) is the
  /// cluster-wide compute total across workers.
  double SumCounters(std::string_view base, const MetricLabels& want) const;

  /// Writes one JSON object per line ("*.metrics.jsonl"); zero-valued
  /// counters and empty histograms are skipped to keep dumps short.
  /// Labeled metrics keep the canonical "base{k=v}" string in "name" and
  /// additionally carry a parsed "labels" object.
  void WriteJsonl(std::ostream& out) const;
};

/// Process-wide registry of named counters, gauges, and histograms.
///
/// Writes go to per-thread shards (relaxed atomics, no locks on the hot
/// path); `Snapshot()` locks the registry and sums live shards plus the
/// retained totals of exited threads. Metric registration is idempotent:
/// the same name always yields a handle to the same slot.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  Histogram GetHistogram(std::string_view name);

  /// Labeled variants: the handle is bound to the slot named
  /// `LabeledName(base, labels)`. Same sharded single-writer design and
  /// identical hot-path cost — the label resolution happens once here,
  /// never on Add/Set/Record.
  Counter GetCounter(std::string_view base, const MetricLabels& labels);
  Gauge GetGauge(std::string_view base, const MetricLabels& labels);
  Histogram GetHistogram(std::string_view base, const MetricLabels& labels);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric (names stay registered). Callers must ensure no
  /// concurrent recording — intended for test setup and between bench
  /// repetitions, not for steady-state use.
  void Reset();
};

}  // namespace sketchml::obs

#endif  // SKETCHML_COMMON_METRICS_REGISTRY_H_
