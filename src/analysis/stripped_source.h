#ifndef SKETCHML_ANALYSIS_STRIPPED_SOURCE_H_
#define SKETCHML_ANALYSIS_STRIPPED_SOURCE_H_

// Source-file tokenizer for `tools/sketchml_analyze`.
//
// Every analyzer pass — the per-file token rules and the whole-project
// passes alike — reads the same stripped view of a source file: comments
// and string/char literal *contents* blanked out (replaced by spaces,
// preserving line structure and column positions) so token matching never
// fires inside them, plus the raw comment text per line for NOLINT
// handling and the untouched raw lines for the few checks that genuinely
// need literal text (quoted #include paths, trace-category literals).
//
// This library is deliberately dependency-free (standard library only) so
// CI can compile the analyzer with a bare `g++` invocation, outside the
// CMake build, and so it sits at the very bottom of the layer DAG the
// layering pass itself enforces.

#include <string>
#include <string_view>
#include <vector>

namespace sketchml::analysis {

/// One file split into lines, with comments and string/char literal
/// contents blanked out.
struct StrippedSource {
  std::string rel;  // Repo-relative with forward slashes: scoping and
                    // diagnostics.
  std::vector<std::string> code;      // Line with comments/strings blanked.
  std::vector<std::string> comments;  // Comment text on each line ("" if none).
  std::vector<std::string> raw;       // Untouched source lines (for matching
                                      // quoted #include paths).
};

/// Blanks comments and literal contents, preserving line structure and
/// column positions. Tracks enough state for //, /* */, "...", '...', and
/// raw strings R"delim(...)delim".
StrippedSource StripToCode(const std::string& rel, const std::string& text);

/// True for characters that can appear inside an identifier.
bool IsIdentChar(char c);

/// True when `needle` occurs in `line` at a token boundary (no identifier
/// character on either side).
bool ContainsToken(std::string_view line, std::string_view needle);

/// True when `prefix` begins an identifier in `line` (no identifier
/// character to its left); the token may continue to the right, matching
/// whole identifier families like _mm256_* or __m128/__m128d/__m128i.
bool ContainsTokenPrefix(std::string_view line, std::string_view prefix);

/// True when `needle` occurs at a token boundary and is immediately
/// followed (modulo spaces) by an opening parenthesis — i.e. a call.
bool ContainsCall(std::string_view line, std::string_view needle);

/// Suppression lookup: `rule` is suppressed on `line_idx` if that line's
/// comment (or the previous line's via NOLINTNEXTLINE) names it — or
/// names no rule at all (a bare NOLINT suppresses everything; the
/// sketchml-nolint-justification rule flags those).
bool Suppressed(const StrippedSource& file, size_t line_idx,
                const std::string& rule);

/// String literals on line `line_idx`, read from the raw text using the
/// stripped line's quote positions (so quotes inside comments or char
/// literals never confuse the extraction). Raw strings yield their first
/// line only; multi-line literal tails are skipped.
std::vector<std::string> StringLiteralsOnLine(const StrippedSource& file,
                                              size_t line_idx);

/// Repo-relative path with forward slashes: the longest suffix starting
/// at a known top-level directory (src/, tests/, tools/, bench/,
/// examples/, docs/), else the whole path.
std::string RepoRelative(const std::string& generic_path);

}  // namespace sketchml::analysis

#endif  // SKETCHML_ANALYSIS_STRIPPED_SOURCE_H_
