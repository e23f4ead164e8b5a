// Golden-fixture tests for tools/sketchml_analyze.
//
// Each project pass has a fixture tree under tests/analysis_fixtures/: a
// `<pass>_bad/` whose findings (and exit code 1) are pinned exactly, a
// `<pass>_clean/` that must come back empty, plus trees exercising the
// baseline escape hatch (suppression, staleness, malformed entries) and
// the flag surface (--pass filter, --docs opt-out, --replay-entry). Each
// token rule has a pair in the `lint/` tree: a `bad_<rule>.cc` whose
// findings are pinned exactly and a `good_<rule>.cc` (near-misses and
// justified NOLINTs) that must come back clean; the LintTest cases pin
// the token-rule side of the flag surface. The tests shell out to
// the real binary so exit codes and output format are pinned, not just
// the pass logic.
//
// Paths are injected by CMake: SKETCHML_ANALYZE_BINARY points at the
// built tool, SKETCHML_ANALYSIS_FIXTURE_DIR at tests/analysis_fixtures.

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#ifndef SKETCHML_ANALYZE_BINARY
#error "build must define SKETCHML_ANALYZE_BINARY"
#endif
#ifndef SKETCHML_ANALYSIS_FIXTURE_DIR
#error "build must define SKETCHML_ANALYSIS_FIXTURE_DIR"
#endif

namespace {

struct AnalyzeRun {
  int exit_code = -1;
  std::string output;  // stdout: one finding per line.
};

AnalyzeRun RunAnalyze(const std::string& args) {
  const std::string cmd =
      std::string(SKETCHML_ANALYZE_BINARY) + " " + args + " 2>/dev/null";
  AnalyzeRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int raw = pclose(pipe);
  run.exit_code = raw >= 0 ? WEXITSTATUS(raw) : -1;
  return run;
}

std::string Root(const std::string& fixture) {
  return "--root=" + std::string(SKETCHML_ANALYSIS_FIXTURE_DIR) + "/" +
         fixture;
}

size_t CountLines(const std::string& text) {
  size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  return lines;
}

void ExpectFinding(const AnalyzeRun& run, const std::string& needle) {
  EXPECT_NE(run.output.find(needle), std::string::npos)
      << "missing \"" << needle << "\" in output:\n"
      << run.output;
}

void ExpectClean(const std::string& args) {
  const AnalyzeRun run = RunAnalyze(args);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, "");
}

// The sorted `file:line: [pass]` heads of the findings in `file`.
std::vector<std::string> FindingsIn(const AnalyzeRun& run,
                                    const std::string& file) {
  std::vector<std::string> heads;
  std::istringstream lines(run.output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(file + ":", 0) != 0) continue;
    heads.push_back(line.substr(0, line.find(']') + 1));
  }
  std::sort(heads.begin(), heads.end());
  return heads;
}

struct ExpectedFinding {
  int line;
  const char* rule;
};

// Runs every pass over the lint corpus: `bad_<stem>.cc` must report
// exactly `expected`, and `good_<stem>.cc` nothing at all.
void ExpectTokenRule(const std::string& stem,
                     std::initializer_list<ExpectedFinding> expected) {
  const AnalyzeRun run = RunAnalyze(Root("lint"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string bad = "src/bad_" + stem + ".cc";
  std::vector<std::string> want;
  for (const ExpectedFinding& f : expected) {
    want.push_back(bad + ":" + std::to_string(f.line) + ": [" + f.rule + "]");
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(FindingsIn(run, bad), want) << run.output;
  EXPECT_EQ(FindingsIn(run, "src/good_" + stem + ".cc"),
            std::vector<std::string>())
      << run.output;
}

TEST(AnalyzeTest, LayeringViolationAndCycle) {
  const AnalyzeRun run = RunAnalyze(Root("layering_bad") + " --pass=layering");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run, "layer 'sketch' may not include \"core/engine.h\"");
  ExpectFinding(run,
                "include cycle: src/common/cycle_a.h -> src/common/cycle_b.h "
                "-> src/common/cycle_a.h");
  // Findings carry their baseline key so escapes are copy-pasteable.
  ExpectFinding(run, "(baseline key: src/sketch/uses_core.cc->core/engine.h)");
}

TEST(AnalyzeTest, LayeringClean) {
  // No --pass: the clean tree must survive every pass.
  ExpectClean(Root("layering_clean"));
}

TEST(AnalyzeTest, BaselineSuppressesFinding) {
  // tools/analysis_baseline.txt inside the fixture root is discovered
  // automatically and covers the one layering violation.
  ExpectClean(Root("layering_baseline"));
}

TEST(AnalyzeTest, StaleBaselineEntryIsAFinding) {
  const AnalyzeRun run = RunAnalyze(Root("stale_baseline"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  ExpectFinding(run, "stale baseline entry");
}

TEST(AnalyzeTest, WireSequenceMismatchAndMissingReader) {
  const AnalyzeRun run = RunAnalyze(Root("wire_bad") + " --pass=wire");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run,
                "demo::ShardState::Serialize writes [u32,u64] but "
                "demo::ShardState::Deserialize reads [u32]");
  ExpectFinding(run, "SaveState in ClockState has no matching RestoreState");
}

TEST(AnalyzeTest, WireClean) { ExpectClean(Root("wire_clean")); }

TEST(AnalyzeTest, NamesOrphanWithNearMissAndDocsDrift) {
  const AnalyzeRun run = RunAnalyze(Root("names_bad") + " --pass=names");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  ExpectFinding(run,
                "consumed metric \"trainer/steps\" has no registration site; "
                "did you mean \"trainer/step\"?");
  ExpectFinding(run, "documented metric \"foo/bar_seconds\"");
  ExpectFinding(run, "docs/metrics.md:4");
}

TEST(AnalyzeTest, NamesClean) { ExpectClean(Root("names_clean")); }

TEST(AnalyzeTest, NamesDocsScanOptOut) {
  // `--docs=` (empty) disables doc scanning: only the code orphan stays.
  const AnalyzeRun run =
      RunAnalyze(Root("names_bad") + " --pass=names --docs=");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  EXPECT_EQ(run.output.find("documented metric"), std::string::npos)
      << run.output;
}

TEST(AnalyzeTest, ReplayWallClockOnCriticalPath) {
  const AnalyzeRun run = RunAnalyze(Root("replay_bad") + " --pass=replay");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 1u) << run.output;
  ExpectFinding(run, "replay-critical path uses steady_clock");
  // The finding carries the shortest witness path from the entry point.
  ExpectFinding(run, "demo::EncodeImpl -> demo::TimedHelper");
}

TEST(AnalyzeTest, ReplayUnreachableTaintIsClean) {
  ExpectClean(Root("replay_clean") + " --pass=replay");
}

TEST(AnalyzeTest, ReplayCustomEntryPoint) {
  // Naming the tainted function as an entry flips the same tree to 1.
  const AnalyzeRun run = RunAnalyze(
      Root("replay_clean") + " --pass=replay --replay-entry=WallClockDebugOnly");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  ExpectFinding(run, "demo::WallClockDebugOnly");
}

TEST(AnalyzeTest, DiscardedStatus) {
  ExpectTokenRule("discarded_status", {{11, "sketchml-discarded-status"},
                                       {12, "sketchml-discarded-status"}});
}

TEST(AnalyzeTest, BannedRandom) {
  ExpectTokenRule("banned_random", {{10, "sketchml-banned-random"},
                                    {11, "sketchml-banned-random"},
                                    {11, "sketchml-banned-random"}});
}

TEST(AnalyzeTest, Wallclock) {
  ExpectTokenRule("wallclock",
                  {{8, "sketchml-wallclock"}, {9, "sketchml-wallclock"}});
}

TEST(AnalyzeTest, Stdout) {
  ExpectTokenRule("stdout", {{9, "sketchml-stdout"}, {10, "sketchml-stdout"}});
}

TEST(AnalyzeTest, IncludeHygiene) {
  ExpectTokenRule("include_hygiene", {{5, "sketchml-include-hygiene"},
                                      {6, "sketchml-include-hygiene"}});
}

TEST(AnalyzeTest, NakedNew) {
  ExpectTokenRule("naked_new",
                  {{11, "sketchml-naked-new"}, {13, "sketchml-naked-new"}});
}

TEST(AnalyzeTest, RawSimd) {
  ExpectTokenRule("raw_simd", {{3, "sketchml-raw-simd"},
                               {8, "sketchml-raw-simd"},
                               {10, "sketchml-raw-simd"}});
}

TEST(AnalyzeTest, TraceCategory) {
  ExpectTokenRule("trace_category", {{11, "sketchml-trace-category"},
                                     {12, "sketchml-trace-category"},
                                     {14, "sketchml-trace-category"},
                                     {17, "sketchml-trace-category"}});
}

TEST(AnalyzeTest, NolintJustification) {
  ExpectTokenRule("nolint_justification",
                  {{10, "sketchml-nolint-justification"},
                   {11, "sketchml-nolint-justification"},
                   {13, "sketchml-nolint-justification"},
                   {15, "sketchml-nolint-justification"}});
}

TEST(AnalyzeTest, PassFilterSkipsOtherPasses) {
  // wire_bad has wire findings only; a layering-only run is clean.
  ExpectClean(Root("wire_bad") + " --pass=layering");
}

TEST(AnalyzeTest, FixtureTreesSkippedInScan) {
  // Rooted at the repository, a scan skips the corpora nested under
  // tests/analysis_fixtures/, so the banned-random fixture (a rule that
  // applies to every path) never reaches the tree-wide gate.
  const AnalyzeRun run =
      RunAnalyze("--root=" + std::string(SKETCHML_ANALYSIS_FIXTURE_DIR) +
                 "/../.. --pass=sketchml-banned-random");
  EXPECT_NE(run.exit_code, 2);
  EXPECT_EQ(run.output.find("bad_banned_random"), std::string::npos)
      << run.output;
}

TEST(AnalyzeTest, ListPasses) {
  const AnalyzeRun run = RunAnalyze("--list-passes");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* id : {"layering", "wire", "names", "replay"}) {
    EXPECT_NE(run.output.find(std::string(id) + "\n"), std::string::npos)
        << run.output;
  }
}

TEST(AnalyzeTest, ConfigErrorsExitTwo) {
  EXPECT_EQ(RunAnalyze("--pass=nosuch").exit_code, 2);
  EXPECT_EQ(RunAnalyze("--root=/no/such/dir").exit_code, 2);
  EXPECT_EQ(RunAnalyze("--no-such-flag").exit_code, 2);
  // Malformed baseline (entry without justification) is a config error,
  // not a silent accept.
  EXPECT_EQ(RunAnalyze(Root("bad_baseline")).exit_code, 2);
}

// The token-rule side of the flag surface: --pass takes a rule id,
// --list-passes names every rule, and usage errors exit 2.

TEST(LintTest, RuleFilter) {
  // A token rule id selects that one rule: over the whole lint corpus
  // only bad_wallclock.cc's two findings remain.
  const AnalyzeRun run =
      RunAnalyze(Root("lint") + " --pass=sketchml-wallclock");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountLines(run.output), 2u) << run.output;
  EXPECT_EQ(FindingsIn(run, "src/bad_wallclock.cc").size(), 2u)
      << run.output;
}

TEST(LintTest, ListRules) {
  const AnalyzeRun run = RunAnalyze("--list-passes");
  EXPECT_EQ(run.exit_code, 0);
  const char* const kRules[] = {
      "sketchml-discarded-status",
      "sketchml-banned-random",
      "sketchml-wallclock",
      "sketchml-stdout",
      "sketchml-include-hygiene",
      "sketchml-naked-new",
      "sketchml-raw-simd",
      "sketchml-trace-category",
      "sketchml-nolint-justification",
  };
  // The four project passes, then one line per rule.
  EXPECT_EQ(CountLines(run.output), 4 + std::size(kRules)) << run.output;
  for (const char* rule : kRules) {
    EXPECT_NE(run.output.find(std::string(rule) + "\n"), std::string::npos)
        << run.output;
  }
}

TEST(LintTest, UsageErrors) {
  EXPECT_EQ(RunAnalyze("--pass=no-such-rule").exit_code, 2);
  // A root with no src/ tests/ tools/ or bench/ has nothing to scan.
  EXPECT_EQ(RunAnalyze(Root("lint/src")).exit_code, 2);
  // A token rule takes no baseline entry: a justified NOLINT is the only
  // way to silence one.
  const std::string baseline = ::testing::TempDir() + "/token.baseline";
  std::ofstream(baseline) << "sketchml-stdout src/a.cc:1 printing is fine\n";
  EXPECT_EQ(
      RunAnalyze(Root("layering_clean") + " --baseline=" + baseline).exit_code,
      2);
  std::remove(baseline.c_str());
}

}  // namespace
