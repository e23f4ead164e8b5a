// perfbench: the repository benchmark's driver (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--short]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --short runs minimal lengths for the benchmark's own test. The last
// stdout line is the JSON result; the lines before it stamp the host and
// list every metric with its unit.

#include <sched.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/obs.h"
#include "common/simd.h"
#include "harness.h"

namespace {

using namespace perfbench;

constexpr char kUsage[] =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--short]\n";

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Build type of the installed Google Benchmark library, as its own JSON
/// context reports it ("release" or "debug").
std::string BenchmarkLibraryBuildType(const char* argv0) {
  benchmark::BenchmarkReporter::Context::executable_name = argv0;
  std::ostringstream out, err;
  benchmark::JSONReporter reporter;
  reporter.SetOutputStream(&out);
  reporter.SetErrorStream(&err);
  reporter.ReportContext(benchmark::BenchmarkReporter::Context());
  const std::string text = out.str();
  const std::string key = "\"library_build_type\": \"";
  const size_t at = text.find(key);
  if (at == std::string::npos) return "unknown";
  const size_t begin = at + key.size();
  return text.substr(begin, text.find('"', begin) - begin);
}

bool ParseOptions(int argc, char** argv, Options* options,
                  std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + key + "'";
      return false;
    }
    key = key.substr(2);
    if (key == "short") {
      options->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "--" + key + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || !(options->seconds > 0)) {
        *error = "--seconds must be a positive number";
        return false;
      }
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1";
        return false;
      }
      options->trace = value == "1";
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
    if (end != nullptr && end != value.c_str() + value.size()) {
      *error = "bad value for --" + key + ": '" + value + "'";
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// Prints `value` with all its digits (JSON has no NaN/inf; those are
/// reported as failures by the caller).
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!ParseOptions(argc, argv, &options, &error)) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  const int cpus = CpuCount();
  const int threads = std::min(4, cpus);
  const std::vector<WorkloadSpec> specs = Workloads(threads);
  const auto spec = std::find_if(
      specs.begin(), specs.end(),
      [&](const WorkloadSpec& s) { return s.name == options.workload; });
  if (spec == specs.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:",
                 options.workload.c_str());
    for (const auto& s : specs) std::fprintf(stderr, " %s", s.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }

  // Observability starts off whatever SKETCHML_OBS says: the end-to-end
  // run measures the untraced program.
  sketchml::obs::SetMetricsEnabled(false);
  sketchml::obs::SetTracingEnabled(false);

  Report report = options.trace ? RunTraced(*spec, options)
                                : RunEndToEnd(*spec, options);
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
  }

  std::printf(
      "host {\"nproc\": %d, \"threads\": %d, \"simd\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"benchmark_lib_build_type\": \"%s\"}\n",
      cpus, spec->threads,
      sketchml::common::simd::LevelName(
          sketchml::common::simd::ActiveLevel()),
      Compiler().c_str(), PERFBENCH_BUILD_TYPE,
      BenchmarkLibraryBuildType(argv[0]).c_str());
  std::printf("workload %s seed %llu seconds %s trace %d%s\n",
              spec->name.c_str(),
              static_cast<unsigned long long>(options.seed),
              Number(options.seconds).c_str(), options.trace ? 1 : 0,
              options.short_mode ? " short" : "");
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("error_rate %s (%llu failed of %llu attempted)\n",
              Number(report.attempted > 0
                         ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 0.0)
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const Metric& m : report.metrics) {
    std::printf("  %-40s %-24s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                    1, report.attempted));
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
