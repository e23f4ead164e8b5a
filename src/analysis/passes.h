#ifndef SKETCHML_ANALYSIS_PASSES_H_
#define SKETCHML_ANALYSIS_PASSES_H_

// The passes behind tools/sketchml_analyze: four cross-TU project passes
// over the src/ + tools/ model, and nine per-file token rules over every
// .h/.cc of src/ tests/ tools/ bench/ (token_rules.cc).
//
//   layering  — the include graph must respect the layer DAG
//               (common -> sketch -> compress -> core -> ml -> dist ->
//               tools; src/analysis is std-only) and contain no cycles.
//   wire      — every Serialize/SerializeTail/SaveState has its matching
//               Deserialize/MergeSerialized/RestoreState, and the two
//               bodies issue the same Write*/Read* field sequence
//               (width + order), so wire/checkpoint format drift fails
//               the build instead of a golden test.
//   names     — metric and trace-span string literals consumed in
//               reports, trace analysis, and docs must have a matching
//               registration/emission site; near-miss typos are called
//               out explicitly.
//   replay    — call-graph reachability from replay-critical entry
//               points (trainer epoch loop, codec Encode/Decode, fault
//               and membership oracles) must not hit wall-clock or
//               ambient-randomness primitives outside the sanctioned
//               common/ wrappers. NOLINT does not clear a finding here:
//               a deterministic path that needs an exception must be
//               baselined with a justification.
//   sketchml-*  — the token rules, one pass per rule id, so a
//               `NOLINT(<rule>): <why>` marker names what it silences.
//               A justified NOLINT is their only escape hatch.
//
// Intentional project-pass findings live in a checked-in baseline file
// (one `<pass> <key> <justification>` line each); stale entries are
// findings themselves so the escape hatch cannot rot.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/project_model.h"

namespace sketchml::analysis {

struct Finding {
  std::string pass;  // Pass id: "layering", ..., or a token rule id.
  std::string key;   // Stable, space-free baseline key ("" for token
                     // rules, which take no baseline entries).
  std::string file;  // Repo-relative path for display ("" for global).
  size_t line = 0;   // 1-based; 0 when not tied to a line.
  std::string message;
};

struct AnalyzeOptions {
  // Replay-pass entry points, matched as substrings of qualified
  // function names. Empty means the built-in replay-critical set.
  std::vector<std::string> replay_entries;
  // Directory of *.md files scanned by the names pass for metric
  // references; "" disables doc scanning.
  std::string docs_dir;
};

std::vector<Finding> RunLayeringPass(const ProjectModel& model);
std::vector<Finding> RunWirePass(const ProjectModel& model);
std::vector<Finding> RunNamesPass(const ProjectModel& model,
                                  const AnalyzeOptions& options);
std::vector<Finding> RunReplayPass(const ProjectModel& model,
                                   const AnalyzeOptions& options);

/// One analyzer pass. Exactly one of the two run functions is set.
struct Pass {
  std::string id;
  /// A project pass runs once over the src/ + tools/ model.
  std::vector<Finding> (*run_project)(const ProjectModel&,
                                      const AnalyzeOptions&) = nullptr;
  /// A token rule runs on every scanned file.
  void (*run_file)(const StrippedSource&, std::vector<Finding>*) = nullptr;
};

/// Every pass in run order: layering, wire, names, replay, then the token
/// rules. This one list drives `--pass`, `--list-passes` and
/// `ParseBaseline`.
const std::vector<Pass>& Passes();

/// The pass named `id`, or nullptr.
const Pass* FindPass(std::string_view id);

/// The token rules (token_rules.cc), in run order.
const std::vector<Pass>& TokenRules();

/// Baseline of intentional findings: (pass, key) -> justification.
struct Baseline {
  std::map<std::pair<std::string, std::string>, std::string> entries;
};

/// Parses a baseline file. Each non-blank, non-# line is
/// `<pass> <key> <justification...>`; a missing justification, an unknown
/// pass id or a token rule id is a config error (returns false and sets
/// `error`).
bool ParseBaseline(const std::string& text, Baseline* baseline,
                   std::string* error);

/// Removes findings whose (pass, key) appears in `baseline` and appends
/// one "stale baseline entry" finding for every baseline entry (of a
/// pass id in `passes_run`) that suppressed nothing.
std::vector<Finding> ApplyBaseline(std::vector<Finding> findings,
                                   const Baseline& baseline,
                                   const std::vector<std::string>& passes_run);

}  // namespace sketchml::analysis

#endif  // SKETCHML_ANALYSIS_PASSES_H_
