#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/// \file
/// The repository benchmark's driver-side types. A run is one closed loop
/// in one process: the harness constructs a workload (set-up), calls it
/// one iteration at a time, checks its outputs and reports every metric
/// by name with its unit. See README.md in this directory.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sparse.h"
#include "common/status.h"
#include "dist/trace_analysis.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // Per-layer (traced) run instead of end-to-end.
  bool short_mode = false;  // Minimal lengths, for the benchmark's own test.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: metrics in emission order, human-readable
/// notes printed before the result line, and the failure accounting.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records one failed check; every failure counts toward the error rate.
  void Fail(const std::string& why) {
    ++failed;
    notes.push_back("FAILED: " + why);
  }
};

/// What one iteration hands back to the harness.
struct IterationResult {
  double samples = 0.0;        // Training instances consumed.
  double sim_seconds = 0.0;    // Simulated seconds (the paper's time).
  uint64_t bytes_up = 0;       // Uplink wire bytes.
  uint64_t bytes_down = 0;     // Downlink wire bytes.
  uint64_t pairs_up = 0;       // Gradient pairs carried uplink.
  uint64_t messages = 0;       // Uplink messages.
  double network_seconds = 0.0;  // Modeled network seconds.
  // L1 recovery error of the codec on this iteration, when the workload
  // computes it itself (the trainer publishes it as counters instead).
  double recovery_error_l1 = 0.0;
  double recovery_ref_l1 = 0.0;
};

/// One benchmark workload. Constructing it is the set-up (data
/// generation, model, codec and trainer); Iterate runs one training
/// iteration through the library's public API.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one iteration. A non-OK status (from the library or from a
  /// failed output check) counts the iteration as failed.
  virtual sketchml::common::Status Iterate(IterationResult* out) = 0;

  /// Training loss at the current weights (after the last iteration).
  virtual double Loss() = 0;

  /// Gradient messages at the current weights, as the workload's
  /// workers would send them; the sub-layer timings run on these.
  virtual std::vector<sketchml::common::SparseGradient> LayerInputs() = 0;
};

struct WorkloadSpec {
  std::string name;
  /// Iterations per round; final_loss is read after exactly this many.
  int round_iterations = 1;
  int short_round_iterations = 1;
  /// Input sets of an end-to-end run. Each round generates one of them,
  /// so the metrics average over several datasets rather than one draw.
  int input_sets = 1;
  /// Executor threads the workload runs on.
  int threads = 1;
  /// Set-up: builds the workload's inputs from `seed`.
  std::function<std::unique_ptr<Workload>(uint64_t seed)> make;
};

/// All workloads, in BENCHMARK.json order. `threads` caps executor threads.
std::vector<WorkloadSpec> Workloads(int threads);

/// End-to-end run (tracing off): repeated rounds of set-up + a fixed
/// number of iterations until `options.seconds` have passed.
Report RunEndToEnd(const WorkloadSpec& spec, const Options& options);

/// Per-layer run: an untraced phase, a traced phase read back through
/// dist::AnalyzeTrace and the metrics registry, then the compress/sketch
/// sub-layer timings on the traced run's own gradients.
Report RunTraced(const WorkloadSpec& spec, const Options& options);

/// Times the compress/sketch sub-layers SketchML's encoder calls, on
/// `messages`, through their public APIs (tracing must be off on entry).
void MeasureSublayers(
    const std::vector<sketchml::common::SparseGradient>& messages,
    uint64_t seed, double seconds, bool short_mode, Report* report);

/// Writes out and clears the trace rings, then parses them back. Fails
/// when the rings dropped events, since the span trees are then partial.
sketchml::common::Result<sketchml::dist::ParsedTrace> CollectTrace();

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
