// sketchml_analyze: the repo's static analyzer.
//
// Loads every .h/.cc under <root>/src, tests, tools and bench, and runs
// two kinds of pass (src/analysis/passes.h):
//
//   token rules     per-file, per-line checks over all four directories,
//                   one pass per rule id (sketchml-discarded-status,
//                   sketchml-banned-random, sketchml-wallclock, ...);
//                   a justified `// NOLINT(<rule>): <why>` is their only
//                   escape hatch
//   project passes  cross-TU checks over a model of src/ + tools/:
//     layering      include graph respects the layer DAG; no include cycles
//     wire          Serialize/SerializeTail/SaveState methods have matching
//                   readers issuing the same Write*/Read* field sequence
//     names         metric/trace literals consumed in reports, the trace
//                   analyzer, and docs have matching registration sites
//     replay        no wall-clock / ambient randomness reachable from the
//                   replay-critical entry points (trainer epoch loop, codec
//                   Encode/Decode, fault and membership oracles)
//
// Usage: sketchml_analyze [--root=DIR] [--pass=ID] [--baseline=FILE]
//                         [--replay-entry=SPEC]... [--docs=DIR]
//                         [--list-passes] [--quiet]
//
// Intentional project-pass findings are recorded in the baseline file
// (default <root>/tools/analysis_baseline.txt when present): one
// `<pass> <key> <justification>` line each. The baseline key for every
// such finding is printed with the diagnostic. Stale entries are findings.
// Nested analysis_fixtures/ trees (the golden violation corpora) are
// skipped.
//
// Exit codes: 0 clean, 1 findings, 2 usage/config error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "analysis/project_model.h"

namespace {

using sketchml::analysis::AnalyzeOptions;
using sketchml::analysis::Baseline;
using sketchml::analysis::Finding;
using sketchml::analysis::LoadSources;
using sketchml::analysis::Pass;
using sketchml::analysis::Passes;
using sketchml::analysis::ProjectModel;
using sketchml::analysis::StrippedSource;

int Usage() {
  std::fprintf(
      stderr,
      "usage: sketchml_analyze [--root=DIR] [--pass=ID] [--baseline=FILE]\n"
      "                        [--replay-entry=SPEC]... [--docs=DIR]\n"
      "                        [--list-passes] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string only_pass;
  std::string baseline_path;
  bool baseline_explicit = false;
  bool docs_explicit = false;
  bool quiet = false;
  AnalyzeOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg.rfind("--pass=", 0) == 0) {
      only_pass = value("--pass=");
      if (sketchml::analysis::FindPass(only_pass) == nullptr) {
        std::fprintf(stderr,
                     "sketchml_analyze: unknown pass '%s' (--list-passes)\n",
                     only_pass.c_str());
        return 2;
      }
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
      baseline_explicit = true;
    } else if (arg.rfind("--replay-entry=", 0) == 0) {
      options.replay_entries.push_back(value("--replay-entry="));
    } else if (arg.rfind("--docs=", 0) == 0) {
      options.docs_dir = value("--docs=");
      docs_explicit = true;
    } else if (arg == "--list-passes") {
      for (const Pass& pass : Passes()) {
        std::printf("%s\n", pass.id.c_str());
      }
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "sketchml_analyze: root '%s' is not a directory\n",
                 root.c_str());
    return 2;
  }
  if (!baseline_explicit) {
    const fs::path candidate = fs::path(root) / "tools/analysis_baseline.txt";
    if (fs::exists(candidate, ec)) baseline_path = candidate.string();
  }
  if (!docs_explicit) {
    const fs::path candidate = fs::path(root) / "docs";
    if (fs::is_directory(candidate, ec)) {
      options.docs_dir = candidate.string();
    }
  }

  Baseline baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "sketchml_analyze: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!sketchml::analysis::ParseBaseline(buf.str(), &baseline, &error)) {
      std::fprintf(stderr, "sketchml_analyze: %s\n", error.c_str());
      return 2;
    }
  }

  std::vector<StrippedSource> sources;
  std::string error;
  if (!LoadSources(root, {"bench", "src", "tests", "tools"}, &sources,
                   &error)) {
    std::fprintf(stderr, "sketchml_analyze: %s\n", error.c_str());
    return 2;
  }
  if (sources.empty()) {
    std::fprintf(stderr, "sketchml_analyze: no sources under '%s'\n",
                 root.c_str());
    return 2;
  }
  // The project passes model src/ + tools/ only: the test stub codecs
  // would otherwise shadow the replay pass's EncodeImpl entry points.
  ProjectModel model;
  for (const StrippedSource& src : sources) {
    if (src.rel.rfind("src/", 0) == 0 || src.rel.rfind("tools/", 0) == 0) {
      sketchml::analysis::AddFileToModel(src, &model);
    }
  }

  std::vector<Finding> findings;
  std::vector<std::string> passes_run;
  for (const Pass& pass : Passes()) {
    if (!only_pass.empty() && pass.id != only_pass) continue;
    passes_run.push_back(pass.id);
    if (pass.run_project != nullptr) {
      for (Finding& f : pass.run_project(model, options)) {
        findings.push_back(std::move(f));
      }
    } else {
      for (const StrippedSource& src : sources) pass.run_file(src, &findings);
    }
  }

  findings = sketchml::analysis::ApplyBaseline(std::move(findings), baseline,
                                               passes_run);
  for (const Finding& f : findings) {
    const std::string where =
        f.file.empty() ? "(project)"
                       : f.file + ":" + std::to_string(f.line);
    std::printf("%s: [%s] %s", where.c_str(), f.pass.c_str(),
                f.message.c_str());
    if (!f.key.empty()) std::printf(" (baseline key: %s)", f.key.c_str());
    std::printf("\n");
  }
  if (!quiet) {
    std::fprintf(stderr, "sketchml_analyze: %zu file(s), %zu finding(s)\n",
                 sources.size(), findings.size());
  }
  return findings.empty() ? 0 : 1;
}
