// Analysis CLI for the observability dumps the other tools write:
//
//   sketchml_report run.series.jsonl
//       per-worker phase breakdown (the paper's Figure 9 view), per-epoch
//       straggler summary, per-codec compression ratio and recovery
//       error, from a --series-out time-series.
//
//   sketchml_report --trace=run.trace.json --metrics=run.metrics.jsonl
//       span totals and the critical-path report of a Chrome trace (each
//       epoch's wall time attributed to compute/encode/decode/aggregate/
//       update/other, modeled network and retry time, stragglers), and/or
//       a metrics snapshot table; combinable with a series file.
//       --json/--diff-golden write or check the critical-path report's
//       JSON, whose "structural" section is deterministic for a seed.
//
//   sketchml_report --baseline=a.series.jsonl --candidate=b.series.jsonl
//       A/B regression gate: flags every metric whose relative change
//       exceeds --threshold (default 0.25) and exits 1 when any change is
//       a regression (more seconds/bytes/error, or any drift in a
//       deterministic count). --ignore-times skips wall-clock metrics so
//       fixed-seed runs compare deterministically across machines.
//
// Exit codes: 0 ok; 1 regression found, orphan spans or multi-root
// batches in the trace, or a structural mismatch against the golden;
// 2 usage or input error, or dropped trace events (incomplete trees).

#include <cstdio>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "dist/report.h"
#include "dist/trace_analysis.h"

namespace {

using namespace sketchml;

constexpr char kUsage[] = R"(sketchml_report [flags] [series.jsonl]

  SERIES.JSONL          time-series from sketchml_train --series-out:
                        prints phase totals, per-worker/server breakdown,
                        per-codec compression, per-epoch stragglers
  --trace=PATH          span totals and critical path of a Chrome trace
  --json=PATH           write the trace's critical-path report as JSON
  --diff-golden=PATH    compare the trace report's structural fields
                        with a golden report JSON; exit 1 on mismatch
  --allow-dropped       analyze a trace with dropped events anyway
  --quiet               print no trace tables
  --metrics=PATH        print a metrics snapshot (*.metrics.jsonl)
  --baseline=PATH       A/B mode: baseline series file
  --candidate=PATH      A/B mode: candidate series file
  --threshold=X         relative change that flags a metric (default 0.25)
  --ignore-times        exclude wall-clock metrics ("*_seconds", "*_ns")
                        from the A/B comparison; sketch quantiles over
                        *modeled* seconds (name contains "modeled") stay
                        compared — they are deterministic for a fixed seed
  --allow-simd-mismatch allow an A/B diff between runs recorded at
                        different SIMD dispatch levels (refused by
                        default: kernel timings are not comparable)
)";

int Fail(const common::Status& status) {
  std::fprintf(stderr, "error: %s\n%s", status.ToString().c_str(), kUsage);
  return 2;
}

struct TraceOptions {
  std::string json_out;
  std::string golden_path;
  bool allow_dropped = false;
  bool quiet = false;
};

/// The --trace mode: span totals and the critical-path report for
/// `trace_path`. Returns the exit code: 2 for unreadable input or dropped
/// events, 1 for orphan spans, multi-root batches or a golden mismatch.
int ReportTrace(const std::string& trace_path, const TraceOptions& options,
                bool separate) {
  auto trace = dist::LoadChromeTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  if (trace->dropped_events > 0 && !options.allow_dropped) {
    std::fprintf(stderr,
                 "error: %s dropped %llu trace events to ring wraparound, "
                 "so its causal trees are incomplete; raise the ring "
                 "capacity, sample batches (--trace-sample-every) or pass "
                 "--allow-dropped\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(trace->dropped_events));
    return 2;
  }
  auto report = dist::AnalyzeTrace(*trace);
  if (!options.quiet) {
    if (separate) std::printf("\n");
    std::printf("%s",
                dist::RenderTraceSummary(dist::SummarizeTrace(*trace)).c_str());
    if (report.ok()) {
      std::printf("\n%s", dist::RenderCriticalPathReport(*report).c_str());
    }
  }
  if (!report.ok()) return Fail(report.status());

  const std::string report_json = dist::CriticalPathReportToJson(*report);
  if (!options.json_out.empty()) {
    std::ofstream out(options.json_out, std::ios::binary | std::ios::trunc);
    out << report_json;
    if (!out) {
      return Fail(common::Status::IoError("cannot write " + options.json_out));
    }
  }

  int exit_code = 0;
  if (report->orphan_spans > 0 || report->multi_root_traces > 0) {
    std::fprintf(stderr,
                 "error: causal reconstruction incomplete: %llu orphan "
                 "spans, %llu multi-root traces\n",
                 static_cast<unsigned long long>(report->orphan_spans),
                 static_cast<unsigned long long>(report->multi_root_traces));
    exit_code = 1;
  }
  if (!options.golden_path.empty()) {
    auto golden_text = dist::ReadFileToString(options.golden_path);
    if (!golden_text.ok()) return Fail(golden_text.status());
    auto mismatches = dist::DiffStructuralJson(*golden_text, report_json);
    if (!mismatches.ok()) return Fail(mismatches.status());
    if (mismatches->empty()) {
      std::printf("structural diff vs %s: OK (%s)\n",
                  options.golden_path.c_str(), trace_path.c_str());
    } else {
      std::fprintf(stderr, "structural diff vs %s: %zu mismatch(es)\n",
                   options.golden_path.c_str(), mismatches->size());
      for (const std::string& mismatch : *mismatches) {
        std::fprintf(stderr, "  %s\n", mismatch.c_str());
      }
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = common::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status());
  const common::FlagParser& flags = *parsed;

  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string candidate_path = flags.GetString("candidate", "");
  const std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  auto threshold = flags.GetDouble("threshold", 0.25);
  if (!threshold.ok()) return Fail(threshold.status());
  const bool ignore_times = flags.GetBool("ignore-times", false);
  const bool allow_simd_mismatch =
      flags.GetBool("allow-simd-mismatch", false);
  TraceOptions trace_options;
  trace_options.json_out = flags.GetString("json", "");
  trace_options.golden_path = flags.GetString("diff-golden", "");
  trace_options.allow_dropped = flags.GetBool("allow-dropped", false);
  trace_options.quiet = flags.GetBool("quiet", false);
  for (const auto& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }

  if (baseline_path.empty() != candidate_path.empty()) {
    return Fail(common::Status::InvalidArgument(
        "--baseline and --candidate must be given together"));
  }
  if (trace_path.empty() &&
      (!trace_options.json_out.empty() || !trace_options.golden_path.empty())) {
    return Fail(common::Status::InvalidArgument(
        "--json and --diff-golden report on a trace: give --trace"));
  }

  const auto& positional = flags.positional();
  if (positional.size() > 1) {
    return Fail(common::Status::InvalidArgument(
        "at most one series file may be given"));
  }

  bool did_anything = false;
  int exit_code = 0;

  if (positional.size() == 1) {
    auto series = dist::LoadRunSeries(positional[0]);
    if (!series.ok()) return Fail(series.status());
    std::printf("%s",
                dist::RenderRunReport(dist::BuildRunReport(*series)).c_str());
    did_anything = true;
  }

  if (!trace_path.empty()) {
    exit_code = ReportTrace(trace_path, trace_options, did_anything);
    if (exit_code == 2) return exit_code;
    did_anything = true;
  }

  if (!metrics_path.empty()) {
    auto text = dist::ReadFileToString(metrics_path);
    if (!text.ok()) return Fail(text.status());
    auto rendered = dist::SummarizeMetricsJsonl(*text);
    if (!rendered.ok()) return Fail(rendered.status());
    if (did_anything) std::printf("\n");
    std::printf("%s", rendered->c_str());
    did_anything = true;
  }

  if (!baseline_path.empty()) {
    auto baseline = dist::LoadRunSeries(baseline_path);
    if (!baseline.ok()) return Fail(baseline.status());
    auto candidate = dist::LoadRunSeries(candidate_path);
    if (!candidate.ok()) return Fail(candidate.status());
    // Runs recorded at different SIMD dispatch levels time different
    // kernels; refuse the comparison unless explicitly overridden (the
    // scalar-vs-dispatch byte-identity gate does so on purpose).
    const std::string base_simd = baseline->MetaOr("simd", "");
    const std::string cand_simd = candidate->MetaOr("simd", "");
    if (!allow_simd_mismatch && !base_simd.empty() && !cand_simd.empty() &&
        base_simd != cand_simd) {
      return Fail(common::Status::InvalidArgument(
          "baseline simd=" + base_simd + " but candidate simd=" +
          cand_simd + "; pass --allow-simd-mismatch to compare anyway"));
    }
    dist::DiffOptions options;
    options.threshold = *threshold;
    options.ignore_times = ignore_times;
    const dist::DiffResult diff = dist::DiffRuns(*baseline, *candidate,
                                                 options);
    if (did_anything) std::printf("\n");
    std::printf("baseline:  %s\ncandidate: %s\n%s", baseline_path.c_str(),
                candidate_path.c_str(),
                dist::RenderDiff(diff, options).c_str());
    return diff.HasRegression() ? 1 : exit_code;
  }

  if (!did_anything) {
    return Fail(common::Status::InvalidArgument(
        "nothing to do: give a series file, --trace/--metrics, or "
        "--baseline/--candidate"));
  }
  return exit_code;
}
