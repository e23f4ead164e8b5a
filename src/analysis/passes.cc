#include "analysis/passes.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace sketchml::analysis {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers.

std::string LayerOf(const std::string& rel) {
  if (rel.rfind("tools/", 0) == 0) return "tools";
  if (rel.rfind("src/", 0) != 0) return "";
  const size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

// Edit distance with early-out; used for near-miss typo suggestions.
size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string NearMiss(const std::string& needle,
                     const std::set<std::string>& candidates) {
  std::string best;
  size_t best_dist = 3;  // Suggest only within edit distance 2.
  for (const std::string& c : candidates) {
    const size_t d = EditDistance(needle, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

// Literals on `line` (1-based) and the following `extra` lines, in source
// order — metric/span call arguments regularly wrap one line.
std::vector<std::string> LiteralsNear(const StrippedSource& src, size_t line,
                                      size_t extra) {
  std::vector<std::string> out;
  for (size_t li = line; li <= line + extra; ++li) {
    if (li == 0 || li > src.code.size()) break;
    for (std::string& lit : StringLiteralsOnLine(src, li - 1)) {
      out.push_back(std::move(lit));
    }
  }
  return out;
}

// Resolves a quoted include ("common/foo.h") to the rel path of a scanned
// file, or "" when the target is outside the model (system-ish include).
std::string ResolveInclude(const ProjectModel& model, const std::string& inc) {
  if (model.FileIndex("src/" + inc) >= 0) return "src/" + inc;
  if (model.FileIndex(inc) >= 0) return inc;
  return "";
}

// Transitive include closure of every file (rel -> set of reachable rels).
std::map<std::string, std::set<std::string>> IncludeClosures(
    const ProjectModel& model) {
  std::map<std::string, std::vector<std::string>> direct;
  for (const ProjectFile& pf : model.files) {
    std::vector<std::string>& out = direct[pf.src.rel];
    for (const std::string& inc : pf.includes) {
      const std::string target = ResolveInclude(model, inc);
      if (!target.empty()) out.push_back(target);
    }
  }
  std::map<std::string, std::set<std::string>> closures;
  for (const auto& [rel, _] : direct) {
    std::set<std::string>& closure = closures[rel];
    std::vector<std::string> stack{rel};
    while (!stack.empty()) {
      const std::string cur = std::move(stack.back());
      stack.pop_back();
      const auto it = direct.find(cur);
      if (it == direct.end()) continue;
      for (const std::string& next : it->second) {
        if (closure.insert(next).second) stack.push_back(next);
      }
    }
  }
  return closures;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 1: layering.

std::vector<Finding> RunLayeringPass(const ProjectModel& model) {
  // Directed layer DAG. A layer may include itself and anything listed.
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {"common"}},
      {"analysis", {"analysis"}},  // std-only: bottom of the DAG.
      {"sketch", {"sketch", "common"}},
      {"compress", {"compress", "sketch", "common"}},
      {"core", {"core", "compress", "sketch", "common"}},
      {"ml", {"ml", "core", "compress", "sketch", "common"}},
      {"dist", {"dist", "ml", "core", "compress", "sketch", "common"}},
  };
  std::vector<Finding> findings;
  for (const ProjectFile& pf : model.files) {
    const std::string layer = LayerOf(pf.src.rel);
    if (layer.empty() || layer == "tools") continue;  // tools: top of DAG.
    const auto allowed_it = kAllowed.find(layer);
    for (size_t i = 0; i < pf.includes.size(); ++i) {
      const std::string& inc = pf.includes[i];
      const size_t slash = inc.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.substr(0, slash);
      if (kAllowed.find(target) == kAllowed.end()) continue;  // Not a layer.
      const bool ok = allowed_it != kAllowed.end() &&
                      allowed_it->second.count(target) > 0;
      if (!ok) {
        std::string allowed_list;
        if (allowed_it != kAllowed.end()) {
          for (const std::string& a : allowed_it->second) {
            if (!allowed_list.empty()) allowed_list += ", ";
            allowed_list += a;
          }
        }
        findings.push_back(
            {"layering", pf.src.rel + "->" + inc, pf.src.rel,
             pf.include_lines[i],
             "layer '" + layer + "' may not include \"" + inc +
                 "\" (allowed layers: " + allowed_list +
                 "); invert the dependency or add a seam in a lower layer"});
      }
    }
  }

  // File-level include cycles (any cycle breaks the DAG regardless of
  // layer labels). Iterative coloring DFS; each cycle reported once,
  // keyed by its lexicographically smallest member.
  std::map<std::string, std::vector<std::string>> edges;
  for (const ProjectFile& pf : model.files) {
    std::vector<std::string>& out = edges[pf.src.rel];
    for (const std::string& inc : pf.includes) {
      const std::string target = ResolveInclude(model, inc);
      if (!target.empty()) out.push_back(target);
    }
  }
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black.
  std::set<std::string> reported;
  std::vector<std::string> path;
  // Explicit stack of (node, next-edge-index) to avoid recursion.
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        path.push_back(node);
        for (const std::string& next : edges[node]) {
          if (color[next] == 1) {
            auto it = std::find(path.begin(), path.end(), next);
            std::vector<std::string> cycle(it, path.end());
            const std::string key =
                "cycle:" + *std::min_element(cycle.begin(), cycle.end());
            if (reported.insert(key).second) {
              std::string msg = "include cycle: ";
              for (const std::string& n : cycle) msg += n + " -> ";
              msg += next;
              findings.push_back({"layering", key, next, 0, msg});
            }
          } else if (color[next] == 0) {
            dfs(next);
          }
        }
        path.pop_back();
        color[node] = 2;
      };
  for (const auto& [rel, _] : edges) {
    if (color[rel] == 0) dfs(rel);
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 2: wire-format symmetry.

namespace {

const std::map<std::string, std::string>& WriterToReader() {
  static const std::map<std::string, std::string> kPairs = {
      {"Serialize", "Deserialize"},
      {"SerializeTail", "MergeSerialized"},
      {"SaveState", "RestoreState"},
  };
  return kPairs;
}

bool IsPairName(const std::string& name) {
  for (const auto& [w, r] : WriterToReader()) {
    if (name == w || name == r) return true;
  }
  return false;
}

std::string MapWireSuffix(const std::string& suffix) {
  static const std::map<std::string, std::string> kWidths = {
      {"U8", "u8"},       {"U16", "u16"},     {"U32", "u32"},
      {"U64", "u64"},     {"I8", "i8"},       {"I16", "i16"},
      {"I32", "i32"},     {"I64", "i64"},     {"Float", "f32"},
      {"Double", "f64"},  {"Varint", "varint"}, {"UintN", "uintN"},
      {"Raw", "bytes"},   {"Bytes", "bytes"}, {"Span", "bytes"},
  };
  const auto it = kWidths.find(suffix);
  return it != kWidths.end() ? it->second : "helper:" + suffix;
}

// The ordered wire-op sequence a body issues: byte widths for
// Write*/Read* calls, "sub" for a nested pair-method call that actually
// targets the stream (the call line mentions `writer` or `reader` — an
// in-memory SaveState(uint64_t[]) on an RNG is not a wire op), and
// matching "helper:X" for project helpers like WriteVector/ReadVector.
std::vector<std::string> WireOps(const ProjectModel& model,
                                 const FunctionDef& def) {
  std::vector<std::string> ops;
  const StrippedSource& src = model.files[def.file].src;
  for (const CallSite& call : def.calls) {
    const std::string& n = call.name;
    if (IsPairName(n)) {
      const std::string& line =
          call.line - 1 < src.code.size() ? src.code[call.line - 1] : "";
      if (ContainsToken(line, "writer") || ContainsToken(line, "reader")) {
        ops.push_back("sub");
      }
      continue;
    }
    if (n.rfind("Write", 0) == 0 && n.size() > 5 &&
        std::isupper(static_cast<unsigned char>(n[5]))) {
      ops.push_back(MapWireSuffix(n.substr(5)));
    } else if (n.rfind("Read", 0) == 0 && n.size() > 4 &&
               std::isupper(static_cast<unsigned char>(n[4]))) {
      ops.push_back(MapWireSuffix(n.substr(4)));
    }
  }
  return ops;
}

std::string JoinOps(const std::vector<std::string>& ops) {
  if (ops.empty()) return "(none)";
  std::string out;
  for (const std::string& op : ops) {
    if (!out.empty()) out += ",";
    out += op;
  }
  return out;
}

std::string PairKey(const ProjectModel& model, const FunctionDef& def) {
  if (!def.owner.empty()) return def.owner + "::" + def.name;
  return def.name + ":" + model.files[def.file].src.rel;
}

// The counterpart definition: same owner for methods, same file for free
// functions. Returns nullptr when none exists.
const FunctionDef* FindCounterpart(const ProjectModel& model,
                                   const FunctionDef& def,
                                   const std::string& paired_name) {
  const auto it = model.functions_by_name.find(paired_name);
  if (it == model.functions_by_name.end()) return nullptr;
  for (const int idx : it->second) {
    const FunctionDef& cand = model.functions[idx];
    if (!def.owner.empty() ? cand.owner == def.owner
                           : cand.owner.empty() && cand.file == def.file) {
      return &cand;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<Finding> RunWirePass(const ProjectModel& model) {
  std::vector<Finding> findings;
  std::set<std::string> seen;  // One finding per (owner, pair).
  for (const FunctionDef& def : model.functions) {
    const auto writer_it = WriterToReader().find(def.name);
    if (writer_it != WriterToReader().end()) {
      if (!seen.insert(PairKey(model, def)).second) continue;
      const FunctionDef* reader =
          FindCounterpart(model, def, writer_it->second);
      const std::string& rel = model.files[def.file].src.rel;
      if (reader == nullptr) {
        findings.push_back(
            {"wire", PairKey(model, def), rel, def.line,
             def.name + " in " +
                 (def.owner.empty() ? "file " + rel : def.owner) +
                 " has no matching " + writer_it->second +
                 "; serialized state that cannot be read back is a wire-"
                 "format bug"});
        continue;
      }
      const std::vector<std::string> w_ops = WireOps(model, def);
      const std::vector<std::string> r_ops = WireOps(model, *reader);
      if (w_ops != r_ops) {
        findings.push_back(
            {"wire", PairKey(model, def), rel, def.line,
             def.qualified + " writes [" + JoinOps(w_ops) + "] but " +
                 reader->qualified + " reads [" + JoinOps(r_ops) +
                 "]; the field sequences (width + order) must match"});
      }
      continue;
    }
    // Reader with no writer: flag once from the reader side.
    for (const auto& [w, r] : WriterToReader()) {
      if (def.name != r) continue;
      if (FindCounterpart(model, def, w) != nullptr) continue;
      if (!seen.insert(PairKey(model, def)).second) continue;
      const std::string& rel = model.files[def.file].src.rel;
      findings.push_back(
          {"wire", PairKey(model, def), rel, def.line,
           def.name + " in " +
               (def.owner.empty() ? "file " + rel : def.owner) +
               " has no matching " + w +
               "; a reader without a writer usually means the pair was "
               "renamed on one side only"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 3: name-registry drift.

namespace {

// Span categories must come from the documented allowlist (mirrors the
// sketchml-trace-category lint rule and docs/observability.md).
bool IsTraceCategory(const std::string& s) {
  static const std::set<std::string> kCategories = {"trainer", "codec",
                                                    "network", "test",
                                                    "bench"};
  return kCategories.count(s) > 0;
}

bool LooksLikeMetricName(const std::string& s) {
  if (s.find('/') == std::string::npos) return false;
  if (s.front() == '/' || s.back() == '/') return false;
  for (const char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '/' ||
          c == '_' || c == '{' || c == '}' || c == '=' || c == ',')) {
      return false;
    }
  }
  return true;
}

std::string MetricBase(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

void AddOrphan(const std::string& kind, const std::string& needle,
               const std::set<std::string>& registered,
               const std::string& file, size_t line,
               std::set<std::string>* dedupe, std::vector<Finding>* out) {
  if (!dedupe->insert(needle).second) return;
  std::string msg = kind + " \"" + needle + "\" has no registration site";
  const std::string suggestion = NearMiss(needle, registered);
  if (!suggestion.empty()) {
    msg += "; did you mean \"" + suggestion + "\"?";
  } else {
    msg += "; register it or remove the stale consumer";
  }
  out->push_back({"names", needle, file, line, msg});
}

}  // namespace

std::vector<Finding> RunNamesPass(const ProjectModel& model,
                                  const AnalyzeOptions& options) {
  static const std::set<std::string> kRegisterCalls = {
      "GetCounter", "GetGauge", "GetHistogram", "Get"};
  static const std::set<std::string> kConsumeCalls = {
      "CounterValueOf", "GaugeValueOf", "FindHistogram",
      "FindSketch",     "SumCounters",  "LabeledName"};

  std::set<std::string> metric_bases;
  std::set<std::string> metric_prefixes;  // Dynamic names: "codec/" + field.
  std::set<std::string> span_categories;
  std::set<std::string> span_names;
  struct Consumption {
    std::string value;
    std::string file;
    size_t line;
  };
  std::vector<Consumption> metric_uses;
  std::vector<Consumption> category_uses;
  std::vector<Consumption> name_uses;

  // Metric registration and consumption ride on the call-site index.
  for (const FunctionDef& def : model.functions) {
    const StrippedSource& src = model.files[def.file].src;
    for (const CallSite& call : def.calls) {
      const bool reg = kRegisterCalls.count(call.name) > 0;
      const bool use = kConsumeCalls.count(call.name) > 0;
      if (!reg && !use) continue;
      for (const std::string& lit : LiteralsNear(src, call.line, 2)) {
        // A registration literal ending in '/' is a dynamic-name prefix:
        // `GetCounter(std::string("codec/") + field)` registers the whole
        // codec/* family.
        if (reg && lit.size() > 1 && lit.back() == '/' &&
            LooksLikeMetricName(lit.substr(0, lit.size() - 1) + "/x")) {
          metric_prefixes.insert(lit);
          break;
        }
        if (!LooksLikeMetricName(lit)) continue;
        if (reg) {
          metric_bases.insert(MetricBase(lit));
        } else {
          metric_uses.push_back({MetricBase(lit), src.rel, call.line});
        }
        break;  // First metric-shaped literal is the name argument.
      }
    }
  }

  // Span emission is line-based: `obs::TraceSpan s("cat", "name")` records
  // the *variable* as the call, so the model's call index cannot see it.
  for (const ProjectFile& pf : model.files) {
    const StrippedSource& src = pf.src;
    if (src.rel.rfind("src/common/trace.", 0) == 0) continue;  // API decl.
    for (size_t li = 0; li < src.code.size(); ++li) {
      const std::string& line = src.code[li];
      const bool emission = ContainsToken(line, "TraceSpan") ||
                            ContainsCall(line, "EmitSpan") ||
                            ContainsCall(line, "EmitSpanWithParent") ||
                            ContainsCall(line, "emplace");
      if (!emission) continue;
      const std::vector<std::string> lits = LiteralsNear(src, li + 1, 1);
      if (lits.empty() || !IsTraceCategory(lits[0])) continue;
      span_categories.insert(lits[0]);
      if (lits.size() > 1) span_names.insert(lits[1]);
    }
  }

  // Span consumption: IsSpan(span, "cat", "name") calls plus
  // `.category == "x"` / `.name == "y"` comparisons in the trace analyzer.
  for (const ProjectFile& pf : model.files) {
    const StrippedSource& src = pf.src;
    const bool analyzer = src.rel.find("trace_analysis") != std::string::npos;
    for (size_t li = 0; li < src.code.size(); ++li) {
      const std::string& line = src.code[li];
      if (ContainsCall(line, "IsSpan")) {
        const std::vector<std::string> lits = LiteralsNear(src, li + 1, 1);
        if (!lits.empty()) {
          category_uses.push_back({lits[0], src.rel, li + 1});
        }
        if (lits.size() > 1) {
          name_uses.push_back({lits[1], src.rel, li + 1});
        }
        continue;
      }
      if (!analyzer || line.find("==") == std::string::npos) continue;
      if (ContainsToken(line, "category")) {
        for (const std::string& lit : StringLiteralsOnLine(src, li)) {
          category_uses.push_back({lit, src.rel, li + 1});
        }
      } else if (ContainsToken(line, "name")) {
        for (const std::string& lit : StringLiteralsOnLine(src, li)) {
          name_uses.push_back({lit, src.rel, li + 1});
        }
      }
    }
  }

  const auto registered = [&](const std::string& base) {
    if (metric_bases.count(base) > 0) return true;
    for (const std::string& prefix : metric_prefixes) {
      if (base.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };

  std::vector<Finding> findings;
  std::set<std::string> dedupe;
  for (const Consumption& use : metric_uses) {
    if (registered(use.value)) continue;
    AddOrphan("consumed metric", use.value, metric_bases, use.file, use.line,
              &dedupe, &findings);
  }
  for (const Consumption& use : category_uses) {
    if (span_categories.count(use.value) > 0) continue;
    AddOrphan("consumed span category", use.value, span_categories, use.file,
              use.line, &dedupe, &findings);
  }
  for (const Consumption& use : name_uses) {
    if (span_names.count(use.value) > 0) continue;
    AddOrphan("consumed span name", use.value, span_names, use.file, use.line,
              &dedupe, &findings);
  }

  // Docs: backtick-quoted metric-shaped names must be registered (or be a
  // span name), so docs/observability.md cannot drift from the code.
  if (!options.docs_dir.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<fs::path> docs;
    for (fs::directory_iterator it(options.docs_dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->path().extension() == ".md") docs.push_back(it->path());
    }
    std::sort(docs.begin(), docs.end());
    for (const fs::path& doc : docs) {
      std::ifstream in(doc);
      if (!in) continue;
      const std::string rel = RepoRelative(doc.generic_string());
      std::string line;
      size_t li = 0;
      while (std::getline(in, line)) {
        ++li;
        size_t pos = 0;
        while ((pos = line.find('`', pos)) != std::string::npos) {
          const size_t close = line.find('`', pos + 1);
          if (close == std::string::npos) break;
          const std::string token = line.substr(pos + 1, close - pos - 1);
          pos = close + 1;
          if (!LooksLikeMetricName(token)) continue;
          // Prose shorthands the pass cannot resolve: brace *expansions*
          // like `trainer/{compute,encode}_seconds` (a '}' before the last
          // character), path-ish mentions (`src/common`, `tools/...`), and
          // intrinsic families — only real metric names start with a
          // lowercase component that is not a repo directory.
          const size_t close_brace = token.find('}');
          if (close_brace != std::string::npos &&
              close_brace + 1 != token.size()) {
            continue;
          }
          if (!std::islower(static_cast<unsigned char>(token.front()))) {
            continue;
          }
          static const std::set<std::string> kPathComponents = {
              "src",  "tests",    "tools", "bench", "docs", "examples",
              "scripts", "build", "common", "compress", "core", "ml",
              "dist", "analysis"};
          if (kPathComponents.count(token.substr(0, token.find('/'))) > 0) {
            continue;
          }
          const std::string base = MetricBase(token);
          if (registered(base) || span_names.count(base) > 0) {
            continue;
          }
          // "cat/name" span shorthand used in prose.
          const size_t slash = base.find('/');
          if (span_categories.count(base.substr(0, slash)) > 0 &&
              span_names.count(base.substr(slash + 1)) > 0) {
            continue;
          }
          AddOrphan("documented metric", base, metric_bases, rel, li, &dedupe,
                    &findings);
        }
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 4: replay purity.

namespace {

// Files whose wall-clock/randomness use is the sanctioned wrapper layer:
// deterministic code may call *into* these (obs::NowNs only feeds trace
// timestamps; common::Rng is seeded, replayable randomness).
bool IsSanctionedFile(const std::string& rel) {
  for (const char* prefix :
       {"src/common/random.", "src/common/stopwatch.", "src/common/trace.",
        "src/common/obs."}) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

struct Taint {
  std::string token;
  size_t line = 0;
};

// A function is tainted when its body textually uses a wall-clock or
// ambient-randomness primitive. Deliberately ignores NOLINT: per-line
// lint suppressions silence the style rule, but a *reachable* use on a
// replay-critical path needs a baselined justification instead.
bool DirectTaint(const ProjectModel& model, const FunctionDef& def,
                 Taint* taint) {
  static const char* kTokens[] = {
      "random_device", "mt19937",      "mt19937_64",
      "default_random_engine",         "system_clock",
      "steady_clock",  "high_resolution_clock"};
  static const char* kCalls[] = {"rand",        "srand",       "time",
                                 "gettimeofday", "clock_gettime",
                                 "localtime",   "gmtime",      "localtime_r",
                                 "gmtime_r"};
  const StrippedSource& src = model.files[def.file].src;
  if (IsSanctionedFile(src.rel)) return false;
  for (size_t li = def.body_begin; li <= def.body_end && li - 1 < src.code.size();
       ++li) {
    const std::string& line = src.code[li - 1];
    for (const char* t : kTokens) {
      if (ContainsToken(line, t)) {
        *taint = {t, li};
        return true;
      }
    }
    for (const char* c : kCalls) {
      if (ContainsCall(line, c)) {
        *taint = {c, li};
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<Finding> RunReplayPass(const ProjectModel& model,
                                   const AnalyzeOptions& options) {
  std::vector<std::string> entries = options.replay_entries;
  if (entries.empty()) {
    entries = {"DistributedTrainer::RunEpoch", "EncodeImpl", "DecodeImpl",
               "FaultInjector::", "MembershipOracle::",
               "MembershipDirectory::"};
  }

  // Direct taint per function.
  std::vector<Taint> taints(model.functions.size());
  std::vector<bool> tainted(model.functions.size(), false);
  for (size_t i = 0; i < model.functions.size(); ++i) {
    tainted[i] = DirectTaint(model, model.functions[i], &taints[i]);
  }

  // Call edges, pruned by the include graph: a cross-file call can only
  // target a function whose header is in the caller file's transitive
  // include closure (a .cc-only function is file-local by construction).
  // This is what keeps by-name resolution from inventing paths through
  // same-named methods of classes the caller cannot even see.
  const auto closures = IncludeClosures(model);
  const auto edge_allowed = [&](const FunctionDef& from,
                                const FunctionDef& to) {
    if (from.file == to.file) return true;
    const std::string& to_rel = model.files[to.file].src.rel;
    std::string to_header = to_rel;
    if (to_rel.size() > 3 && to_rel.compare(to_rel.size() - 3, 3, ".cc") == 0) {
      to_header = to_rel.substr(0, to_rel.size() - 3) + ".h";
      if (model.FileIndex(to_header) < 0) return false;  // File-local.
    }
    const auto it = closures.find(model.files[from.file].src.rel);
    return it != closures.end() && it->second.count(to_header) > 0;
  };

  std::vector<std::vector<int>> adj(model.functions.size());
  for (size_t i = 0; i < model.functions.size(); ++i) {
    for (const CallSite& call : model.functions[i].calls) {
      const auto it = model.functions_by_name.find(call.name);
      if (it == model.functions_by_name.end()) continue;
      for (const int target : it->second) {
        if (edge_allowed(model.functions[i],
                         model.functions[static_cast<size_t>(target)])) {
          adj[i].push_back(target);
        }
      }
    }
  }

  std::vector<Finding> findings;
  std::set<std::string> seen;
  for (const std::string& entry : entries) {
    for (size_t e = 0; e < model.functions.size(); ++e) {
      if (model.functions[e].qualified.find(entry) == std::string::npos) {
        continue;
      }
      // BFS with parents for a shortest witness path.
      std::vector<int> parent(model.functions.size(), -2);
      std::vector<int> queue{static_cast<int>(e)};
      parent[e] = -1;
      for (size_t qi = 0; qi < queue.size(); ++qi) {
        const int cur = queue[qi];
        for (const int next : adj[static_cast<size_t>(cur)]) {
          if (parent[static_cast<size_t>(next)] != -2) continue;
          parent[static_cast<size_t>(next)] = cur;
          queue.push_back(next);
        }
      }
      for (const int reached : queue) {
        if (!tainted[static_cast<size_t>(reached)]) continue;
        const FunctionDef& entry_fn = model.functions[e];
        const FunctionDef& sink = model.functions[static_cast<size_t>(reached)];
        const std::string key = entry_fn.qualified + "->" + sink.qualified;
        if (!seen.insert(key).second) continue;
        std::vector<std::string> path;
        for (int cur = reached; cur != -1;
             cur = parent[static_cast<size_t>(cur)]) {
          path.push_back(model.functions[static_cast<size_t>(cur)].qualified);
        }
        std::reverse(path.begin(), path.end());
        std::string path_str;
        for (const std::string& p : path) {
          if (!path_str.empty()) path_str += " -> ";
          path_str += p;
        }
        const Taint& taint = taints[static_cast<size_t>(reached)];
        findings.push_back(
            {"replay", key, model.files[sink.file].src.rel, taint.line,
             "replay-critical path uses " + taint.token + ": " + path_str +
                 "; route through common/random.h or common/obs.h, or "
                 "baseline with a justification"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// The pass list.

const std::vector<Pass>& Passes() {
  static const std::vector<Pass> kPasses = [] {
    std::vector<Pass> passes = {
        {"layering",
         [](const ProjectModel& model, const AnalyzeOptions&) {
           return RunLayeringPass(model);
         }},
        {"wire",
         [](const ProjectModel& model, const AnalyzeOptions&) {
           return RunWirePass(model);
         }},
        {"names", RunNamesPass},
        {"replay", RunReplayPass},
    };
    passes.insert(passes.end(), TokenRules().begin(), TokenRules().end());
    return passes;
  }();
  return kPasses;
}

const Pass* FindPass(std::string_view id) {
  for (const Pass& pass : Passes()) {
    if (pass.id == id) return &pass;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Baseline handling.

bool ParseBaseline(const std::string& text, Baseline* baseline,
                   std::string* error) {
  std::istringstream in(text);
  std::string line;
  size_t li = 0;
  while (std::getline(in, line)) {
    ++li;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string pass, key;
    if (!(fields >> pass)) continue;  // Blank.
    const Pass* known = FindPass(pass);
    if (known == nullptr || known->run_project == nullptr) {
      *error = "baseline line " + std::to_string(li) + ": " +
               (known == nullptr ? "unknown pass '" + pass + "'"
                                 : "token rule '" + pass +
                                       "' takes no baseline entries; use "
                                       "a justified NOLINT");
      return false;
    }
    if (!(fields >> key)) {
      *error = "baseline line " + std::to_string(li) + ": missing key";
      return false;
    }
    std::string justification;
    std::getline(fields, justification);
    const size_t start = justification.find_first_not_of(" \t");
    justification =
        start == std::string::npos ? "" : justification.substr(start);
    if (justification.empty()) {
      *error = "baseline line " + std::to_string(li) +
               ": entry '" + key + "' needs a justification";
      return false;
    }
    baseline->entries[{pass, key}] = justification;
  }
  return true;
}

std::vector<Finding> ApplyBaseline(
    std::vector<Finding> findings, const Baseline& baseline,
    const std::vector<std::string>& passes_run) {
  std::set<std::pair<std::string, std::string>> used;
  std::vector<Finding> out;
  for (Finding& f : findings) {
    if (baseline.entries.count({f.pass, f.key}) > 0) {
      used.insert({f.pass, f.key});
    } else {
      out.push_back(std::move(f));
    }
  }
  for (const auto& [entry, justification] : baseline.entries) {
    (void)justification;
    if (used.count(entry) > 0) continue;
    if (std::find(passes_run.begin(), passes_run.end(), entry.first) ==
        passes_run.end()) {
      continue;  // Pass not run this invocation; cannot judge staleness.
    }
    out.push_back({entry.first, entry.second, "", 0,
                   "stale baseline entry '" + entry.second + "' for pass '" +
                       entry.first + "' suppresses nothing; delete it"});
  }
  return out;
}

}  // namespace sketchml::analysis
