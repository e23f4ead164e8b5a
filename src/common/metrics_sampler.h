#ifndef SKETCHML_COMMON_METRICS_SAMPLER_H_
#define SKETCHML_COMMON_METRICS_SAMPLER_H_

#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sketchml::obs {

struct MetricsSnapshot;

/// Key/value run description written into the time-series header so a
/// dump is self-describing (flags, seed, cluster shape, git sha). Order
/// is preserved.
struct RunMetadata {
  std::vector<std::pair<std::string, std::string>> entries;

  void Add(std::string_view key, std::string_view value) {
    entries.emplace_back(std::string(key), std::string(value));
  }
  void Add(std::string_view key, double value);
  void Add(std::string_view key, long long value);
};

/// Compile-time git revision (CMake bakes it in at configure time;
/// "unknown" when the source tree had no git metadata).
std::string BuildGitSha();

/// Prometheus text-exposition writer for a metrics snapshot
/// (`--metrics-format=prom`). Metric names are mangled to the prom
/// charset (`trainer/worker_seconds{worker=3}` becomes
/// `sketchml_trainer_worker_seconds{worker="3"}`), histograms become
/// quantile-free summaries (`_sum`/`_count`), and sketch histograms
/// become summaries with `quantile` labels. Zero counters and empty
/// histograms are skipped, matching the JSONL dumps.
void WritePromExposition(const MetricsSnapshot& snapshot, std::ostream& out);

/// Background registry sampler: appends point-in-time snapshots of every
/// metric to a JSONL time-series ("*.series.jsonl").
///
/// File layout — line 1 is a run header:
///   {"type":"run","schema":1,"git_sha":...,"meta":{...}}
/// followed by one sample object per snapshot:
///   {"type":"sample","t_ns":...,"reason":"interval"|"epoch"|"final",
///    "dropped_trace_events":N,
///    "counters":{name:value,...},"gauges":{...},
///    "histograms":{name:{"count":..,"sum":..,"min":..,"max":..},...},
///    "sketches":{name:{"count":..,"min":..,"max":..,"eps":..,
///                      "p50":..,"p50_lo":..,"p50_hi":..,...,"p999_hi":..,
///                      "wp50":..,...,"wp99_hi":..,
///                      "window_count":..,"windows":..},...}}
/// Counter values are cumulative-since-start (consumers diff successive
/// samples for rates); zero counters and empty histograms/sketches are
/// skipped. Sketch quantiles carry their error window: the true rank-q
/// value lies in [q_lo, q_hi] up to the KLL bound `eps` (see
/// SketchHistogramSummary).
///
/// The sampler only *reads* the registry (snapshot + serialize on its own
/// thread), so training results are bit-identical with it on or off.
class MetricsSampler {
 public:
  struct Options {
    std::string out_path;            // Required.
    double interval_seconds = 0.0;   // <= 0: no periodic thread; samples
                                     // happen only via SampleNow().
    RunMetadata metadata;
  };

  /// Opens the output, writes the header, and (when interval_seconds > 0)
  /// starts the periodic thread.
  static common::Result<std::unique_ptr<MetricsSampler>> Start(
      Options options);

  /// Stops and flushes (same as Stop, ignoring the status).
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Appends one sample immediately, tagged with `reason` (the trainer
  /// calls this at every epoch boundary with "epoch"). Thread-safe.
  void SampleNow(std::string_view reason) SKETCHML_EXCLUDES(mutex_);

  /// Writes a last "final" sample, joins the periodic thread, flushes,
  /// and reports any write error. Idempotent.
  common::Status Stop() SKETCHML_EXCLUDES(mutex_);

  size_t samples_written() const SKETCHML_EXCLUDES(mutex_);

 private:
  explicit MetricsSampler(Options options);

  void WriteHeader() SKETCHML_EXCLUDES(mutex_);
  void WriteSampleLocked(std::string_view reason) SKETCHML_REQUIRES(mutex_);
  void PeriodicLoop() SKETCHML_EXCLUDES(mutex_);

  Options options_;
  std::ofstream out_ SKETCHML_GUARDED_BY(mutex_);
  mutable common::Mutex mutex_;
  common::CondVar cv_;
  bool stopping_ SKETCHML_GUARDED_BY(mutex_) = false;
  bool stopped_ SKETCHML_GUARDED_BY(mutex_) = false;
  size_t samples_written_ SKETCHML_GUARDED_BY(mutex_) = 0;
  std::thread periodic_;
};

}  // namespace sketchml::obs

#endif  // SKETCHML_COMMON_METRICS_SAMPLER_H_
