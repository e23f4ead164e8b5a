#include "analysis/project_model.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace sketchml::analysis {
namespace {

// Tokens the function scanner must never treat as a callee or a function
// name: control flow, operators that read like calls, and declaration
// keywords that precede a '(' in function-pointer types.
const std::set<std::string, std::less<>>& NonCalleeKeywords() {
  static const std::set<std::string, std::less<>> kSet = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "alignas",  "decltype",
      "noexcept", "throw",    "new",      "delete",   "static_assert",
      "assert",   "defined",  "void",     "int",      "bool",
      "char",     "double",   "float",    "auto",     "unsigned",
      "signed",   "long",     "short",    "const",    "constexpr",
      "consteval","constinit","static",   "inline",   "explicit",
      "virtual",  "typename", "case",     "default",  "do",
      "else",     "goto",     "requires", "co_await", "co_return",
      "co_yield", "operator", "not",      "and",      "or",
  };
  return kSet;
}

struct Tok {
  std::string text;
  size_t line = 0;  // 1-based.
};

bool IsIdentTok(const std::string& t) {
  return !t.empty() && (IsIdentChar(t[0]) && !std::isdigit(
                            static_cast<unsigned char>(t[0])));
}

// Tokenizes the stripped code: identifiers/numbers, "::" as one token,
// string/char literals as single '"' / '\'' tokens, all other punctuation
// one char per token. Preprocessor directive lines (and their backslash
// continuations) are skipped entirely so macro definitions never skew the
// brace/scope tracking.
std::vector<Tok> Tokenize(const StrippedSource& src) {
  std::vector<Tok> toks;
  bool in_directive = false;
  for (size_t li = 0; li < src.code.size(); ++li) {
    const std::string& line = src.code[li];
    if (!in_directive) {
      size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') {
        in_directive = true;
      }
    }
    if (in_directive) {
      const std::string& raw =
          li < src.raw.size() ? src.raw[li] : std::string();
      const size_t last = raw.find_last_not_of(" \t");
      in_directive = last != std::string::npos && raw[last] == '\\';
      continue;
    }
    for (size_t i = 0; i < line.size();) {
      const char c = line[i];
      if (c == ' ' || c == '\t') {
        ++i;
      } else if (IsIdentChar(c)) {
        size_t j = i + 1;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        toks.push_back({line.substr(i, j - i), li + 1});
        i = j;
      } else if (c == '"' || c == '\'') {
        // Literal contents are blanked; find the closer on this line.
        const size_t close = line.find(c, i + 1);
        toks.push_back({std::string(1, c), li + 1});
        i = close == std::string::npos ? line.size() : close + 1;
      } else if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        toks.push_back({"::", li + 1});
        i += 2;
      } else {
        toks.push_back({std::string(1, c), li + 1});
        ++i;
      }
    }
  }
  return toks;
}

// Index of the token matching the '(' (or '{', '<') at `open`, or
// toks.size() when unbalanced.
size_t MatchGroup(const std::vector<Tok>& toks, size_t open,
                  const std::string& open_tok, const std::string& close_tok) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_tok) ++depth;
    if (toks[i].text == close_tok && --depth == 0) return i;
  }
  return toks.size();
}

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind;
  std::string name;
  int function_index = -1;  // For kFunction: index into model->functions.
};

bool InsideFunction(const std::vector<Scope>& scopes) {
  for (const Scope& s : scopes) {
    if (s.kind == Scope::kFunction) return true;
  }
  return false;
}

// Walks qualifier tokens leftward from the name token at `name_idx`
// ("A::B::name", "Class<T>::name", "~Class") and returns {qualifier
// chain without the name, first token index of the whole reference}.
std::pair<std::vector<std::string>, size_t> WalkQualifiers(
    const std::vector<Tok>& toks, size_t name_idx) {
  std::vector<std::string> parts;
  size_t j = name_idx;
  while (j >= 2 && toks[j - 1].text == "::") {
    size_t k = j - 2;
    if (toks[k].text == ">") {
      // Skip a template argument list backwards to its '<'.
      int depth = 0;
      while (k > 0) {
        if (toks[k].text == ">") ++depth;
        if (toks[k].text == "<" && --depth == 0) break;
        --k;
      }
      if (k == 0 || !IsIdentTok(toks[k - 1].text)) break;
      --k;
    }
    if (!IsIdentTok(toks[k].text)) break;
    parts.insert(parts.begin(), toks[k].text);
    j = k;
  }
  return {parts, j};
}

std::string JoinScopes(const std::vector<Scope>& scopes,
                       const std::vector<std::string>& quals,
                       const std::string& name) {
  std::string out;
  for (const Scope& s : scopes) {
    if ((s.kind == Scope::kNamespace || s.kind == Scope::kClass) &&
        !s.name.empty()) {
      out += s.name;
      out += "::";
    }
  }
  for (const std::string& q : quals) {
    out += q;
    out += "::";
  }
  out += name;
  return out;
}

void ScanFunctions(const std::vector<Tok>& toks, int file_index,
                   ProjectModel* model) {
  std::vector<Scope> scopes;
  size_t i = 0;
  const auto pop_scope = [&](size_t close_line) {
    if (scopes.empty()) return;
    if (scopes.back().kind == Scope::kFunction &&
        scopes.back().function_index >= 0) {
      model->functions[scopes.back().function_index].body_end = close_line;
    }
    scopes.pop_back();
  };
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    const bool in_fn = InsideFunction(scopes);
    if (t == "{") {
      scopes.push_back({Scope::kBlock, "", -1});
      ++i;
      continue;
    }
    if (t == "}") {
      pop_scope(toks[i].line);
      ++i;
      continue;
    }
    if (in_fn) {
      // Inside a body: record call sites only.
      if (IsIdentTok(t) && i + 1 < toks.size() && toks[i + 1].text == "(" &&
          NonCalleeKeywords().count(t) == 0) {
        const auto [quals, first] = WalkQualifiers(toks, i);
        (void)first;
        std::string qualified;
        for (const std::string& q : quals) {
          qualified += q;
          qualified += "::";
        }
        qualified += t;
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          if (it->kind == Scope::kFunction && it->function_index >= 0) {
            model->functions[it->function_index].calls.push_back(
                {t, qualified, toks[i].line});
            break;
          }
        }
      }
      ++i;
      continue;
    }
    // Declaration scope (global / namespace / class body).
    if (t == "namespace") {
      std::string name;
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != "=") {
        name += toks[j].text;
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        scopes.push_back({Scope::kNamespace, name, -1});
        i = j + 1;
      } else {
        // Alias or declaration: skip past the ';'.
        while (j < toks.size() && toks[j].text != ";") ++j;
        i = j + 1;
      }
      continue;
    }
    if ((t == "class" || t == "struct") &&
        (i == 0 || toks[i - 1].text != "enum")) {
      std::string name;
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != ":") {
        if (toks[j].text == "(") {
          j = MatchGroup(toks, j, "(", ")") + 1;  // Attribute macro args.
          continue;
        }
        if (toks[j].text == "<") {
          j = MatchGroup(toks, j, "<", ">") + 1;  // Template-id (spec.).
          continue;
        }
        if (IsIdentTok(toks[j].text) && toks[j].text != "final" &&
            toks[j].text != "alignas") {
          name = toks[j].text;
        }
        ++j;
      }
      if (j < toks.size() && toks[j].text == ":") {
        // Base clause: scan to the '{' (or ';' defensively).
        while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
          ++j;
        }
      }
      if (j < toks.size() && toks[j].text == "{") {
        scopes.push_back({Scope::kClass, name, -1});
      }
      i = j + 1;
      continue;
    }
    if (t == "enum" || t == "union") {
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        j = MatchGroup(toks, j, "{", "}");
      }
      i = j + 1;
      continue;
    }
    if (t == "using" || t == "typedef" || t == "friend") {
      size_t j = i + 1;
      while (j < toks.size() && toks[j].text != ";") ++j;
      i = j + 1;
      continue;
    }
    if (t == "template" && i + 1 < toks.size() && toks[i + 1].text == "<") {
      i = MatchGroup(toks, i + 1, "<", ">") + 1;
      continue;
    }
    if (IsIdentTok(t) && i + 1 < toks.size() && toks[i + 1].text == "(" &&
        NonCalleeKeywords().count(t) == 0) {
      // Function-definition candidate. Resolve the name (destructor tilde
      // and explicit qualifiers), then walk the signature to decide
      // definition vs. declaration.
      std::string name = t;
      size_t name_first = i;
      if (i > 0 && toks[i - 1].text == "~") {
        name = "~" + name;
        name_first = i - 1;
      }
      const auto [quals, first] = WalkQualifiers(toks, name_first);
      (void)first;
      const size_t lparen = i + 1;
      size_t rparen = MatchGroup(toks, lparen, "(", ")");
      size_t j = rparen + 1;
      bool is_def = false;
      size_t body_lbrace = 0;
      while (j < toks.size()) {
        const std::string& s = toks[j].text;
        if (s == "{") {
          is_def = true;
          body_lbrace = j;
          break;
        }
        if (s == ";" || s == "=" || s == ",") break;
        if (s == ":") {
          // Constructor initializer list: skip `member(init)` /
          // `member{init}` groups until the body brace.
          ++j;
          while (j < toks.size()) {
            while (j < toks.size() && toks[j].text != "(" &&
                   toks[j].text != "{" && toks[j].text != ";") {
              ++j;
            }
            if (j >= toks.size() || toks[j].text == ";") break;
            const bool paren = toks[j].text == "(";
            j = MatchGroup(toks, j, paren ? "(" : "{", paren ? ")" : "}") + 1;
            if (j < toks.size() && toks[j].text == ",") {
              ++j;
              continue;
            }
            break;
          }
          if (j < toks.size() && toks[j].text == "{") {
            is_def = true;
            body_lbrace = j;
          }
          break;
        }
        if (s == "(") {
          j = MatchGroup(toks, j, "(", ")") + 1;  // Trailing attr macro.
          continue;
        }
        ++j;
      }
      if (!is_def) {
        i = lparen + 1;
        continue;
      }
      FunctionDef def;
      def.name = name;
      def.qualified = JoinScopes(scopes, quals, name);
      if (!quals.empty()) {
        def.owner = quals.back();
      } else {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          if (it->kind == Scope::kClass) {
            def.owner = it->name;
            break;
          }
        }
      }
      def.file = file_index;
      def.line = toks[lparen].line;
      def.body_begin = toks[body_lbrace].line;
      def.body_end = toks[body_lbrace].line;  // Fixed up at the close brace.
      const int fn_index = static_cast<int>(model->functions.size());
      model->functions.push_back(std::move(def));
      scopes.push_back({Scope::kFunction, name, fn_index});
      i = body_lbrace + 1;
      continue;
    }
    ++i;
  }
  // Unterminated scopes (unbalanced preprocessor branches): close at EOF.
  while (!scopes.empty()) {
    pop_scope(toks.empty() ? 0 : toks.back().line);
  }
}

void ExtractIncludes(ProjectFile* pf) {
  for (size_t li = 0; li < pf->src.raw.size(); ++li) {
    const std::string& raw = pf->src.raw[li];
    size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    p = raw.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || raw.compare(p, 7, "include") != 0) continue;
    p = raw.find_first_not_of(" \t", p + 7);
    if (p == std::string::npos || raw[p] != '"') continue;
    const size_t close = raw.find('"', p + 1);
    if (close == std::string::npos) continue;
    pf->includes.push_back(raw.substr(p + 1, close - p - 1));
    pf->include_lines.push_back(li + 1);
  }
}

}  // namespace

int ProjectModel::FileIndex(std::string_view rel) const {
  for (size_t i = 0; i < files.size(); ++i) {
    if (files[i].src.rel == rel) return static_cast<int>(i);
  }
  return -1;
}

std::vector<const FunctionDef*> ProjectModel::MethodsOf(
    std::string_view owner) const {
  std::vector<const FunctionDef*> out;
  for (const FunctionDef& f : functions) {
    if (f.owner == owner) out.push_back(&f);
  }
  return out;
}

void AddFileToModel(StrippedSource src, ProjectModel* model) {
  const int file_index = static_cast<int>(model->files.size());
  model->files.push_back({std::move(src), {}, {}});
  ProjectFile& pf = model->files.back();
  ExtractIncludes(&pf);
  const std::vector<Tok> toks = Tokenize(pf.src);
  const size_t first_fn = model->functions.size();
  ScanFunctions(toks, file_index, model);
  for (size_t fi = first_fn; fi < model->functions.size(); ++fi) {
    FunctionDef& def = model->functions[fi];
    for (size_t li = def.body_begin; li <= def.body_end &&
                    li - 1 < pf.src.code.size(); ++li) {
      for (std::string& lit : StringLiteralsOnLine(pf.src, li - 1)) {
        def.literals.emplace_back(std::move(lit), li);
      }
    }
    model->functions_by_name[def.name].push_back(static_cast<int>(fi));
  }
}

bool LoadSources(const std::string& root,
                 const std::vector<std::string>& subdirs,
                 std::vector<StrippedSource>* sources, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const std::string& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const fs::path& p = it->path();
      // Fixture trees are analyzed with the fixture directory itself as
      // the root, so only skip them when they are nested *below* the
      // scanned subdir — not when the root already points inside one.
      if (p.lexically_relative(dir).generic_string().find(
              "analysis_fixtures") != std::string::npos) {
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext == ".h" || ext == ".cc") paths.push_back(p);
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    if (!in) {
      if (error) *error = "cannot read " + p.string();
      return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    sources->push_back(StripToCode(
        p.lexically_relative(root).generic_string(), buf.str()));
  }
  return true;
}

}  // namespace sketchml::analysis
