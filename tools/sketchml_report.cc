// Analysis CLI for the observability dumps the other tools write:
//
//   sketchml_report run.series.jsonl
//       per-worker phase breakdown (the paper's Figure 9 view), per-epoch
//       straggler summary, per-codec compression ratio and recovery
//       error, from a --series-out time-series.
//
//   sketchml_report --trace=run.trace.json --metrics=run.metrics.jsonl
//       span totals from a Chrome trace and/or a metrics snapshot table;
//       combinable with a series file.
//
//   sketchml_report --baseline=a.series.jsonl --candidate=b.series.jsonl
//       A/B regression gate: flags every metric whose relative change
//       exceeds --threshold (default 0.25) and exits 1 when any change is
//       a regression (more seconds/bytes/error, or any drift in a
//       deterministic count). --ignore-times skips wall-clock metrics so
//       fixed-seed runs compare deterministically across machines.
//
// Exit codes: 0 ok, 1 regression found, 2 usage or input error.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "dist/report.h"

namespace {

using namespace sketchml;

constexpr char kUsage[] = R"(sketchml_report [flags] [series.jsonl]

  SERIES.JSONL          time-series from sketchml_train --series-out:
                        prints phase totals, per-worker/server breakdown,
                        per-codec compression, per-epoch stragglers
  --trace=PATH          summarize a Chrome trace (*.trace.json)
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
  for (const auto& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n",
                 unused.c_str());
  }

  if (baseline_path.empty() != candidate_path.empty()) {
    return Fail(common::Status::InvalidArgument(
        "--baseline and --candidate must be given together"));
  }

  const auto& positional = flags.positional();
  if (positional.size() > 1) {
    return Fail(common::Status::InvalidArgument(
        "at most one series file may be given"));
  }

  bool did_anything = false;

  if (positional.size() == 1) {
    auto series = dist::LoadRunSeries(positional[0]);
    if (!series.ok()) return Fail(series.status());
    std::printf("%s",
                dist::RenderRunReport(dist::BuildRunReport(*series)).c_str());
    did_anything = true;
  }

  if (!trace_path.empty()) {
    auto trace = dist::LoadChromeTrace(trace_path);
    if (!trace.ok()) return Fail(trace.status());
    if (did_anything) std::printf("\n");
    std::printf("%s",
                dist::RenderTraceSummary(dist::SummarizeTrace(*trace)).c_str());
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
    return diff.HasRegression() ? 1 : 0;
  }

  if (!did_anything) {
    return Fail(common::Status::InvalidArgument(
        "nothing to do: give a series file, --trace/--metrics, or "
        "--baseline/--candidate"));
  }
  return 0;
}
