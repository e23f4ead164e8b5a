#include "analysis/stripped_source.h"

#include <cctype>

namespace sketchml::analysis {

StrippedSource StripToCode(const std::string& rel, const std::string& text) {
  StrippedSource out;
  out.rel = rel;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // For kRawString: the )delim" terminator.
  std::string code_line, comment_line;

  const auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary literals cannot span lines; reset defensively.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line += "//";
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line += "/*";
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R / u8R / LR / UR / uR.
          const bool raw =
              !code_line.empty() && code_line.back() == 'R' &&
              (code_line.size() < 2 ||
               !(std::isalnum(static_cast<unsigned char>(
                     code_line[code_line.size() - 2])) ||
                 code_line[code_line.size() - 2] == '_') ||
               code_line[code_line.size() - 2] == '8' ||
               code_line[code_line.size() - 2] == 'u' ||
               code_line[code_line.size() - 2] == 'U' ||
               code_line[code_line.size() - 2] == 'L');
          if (raw) {
            // Collect the delimiter up to '('. (assign() instead of a
            // literal assignment dodges a gcc-12 -Wrestrict false positive.)
            raw_delim.assign(1, ')');
            size_t j = i + 1;
            while (j < text.size() && text[j] != '(' && text[j] != '\n') {
              raw_delim += text[j];
              ++j;
            }
            raw_delim += '"';
            state = State::kRawString;
            code_line += '"';
          } else {
            state = State::kString;
            code_line += '"';
          }
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        code_line += ' ';
        comment_line += c;
        if (c == '*' && next == '/') {
          comment_line += '/';
          code_line += ' ';
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          code_line += '"';
          state = State::kCode;
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          code_line += '\'';
          state = State::kCode;
        } else {
          code_line += ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) {
            if (text[i + k] == '\n') {
              flush_line();
            } else {
              code_line += ' ';
            }
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  if (!code_line.empty() || !comment_line.empty()) flush_line();
  // Raw lines, aligned with code/comments (padded if the file ends in '\n').
  std::string raw_line;
  for (const char c : text) {
    if (c == '\n') {
      out.raw.push_back(std::move(raw_line));
      raw_line.clear();
    } else {
      raw_line += c;
    }
  }
  if (!raw_line.empty()) out.raw.push_back(std::move(raw_line));
  out.raw.resize(out.code.size());
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool ContainsToken(std::string_view line, std::string_view needle) {
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + needle.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

bool ContainsTokenPrefix(std::string_view line, std::string_view prefix) {
  size_t pos = 0;
  while ((pos = line.find(prefix, pos)) != std::string_view::npos) {
    if (pos == 0 || !IsIdentChar(line[pos - 1])) return true;
    pos += 1;
  }
  return false;
}

bool ContainsCall(std::string_view line, std::string_view needle) {
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t end = pos + needle.size();
    while (end < line.size() && line[end] == ' ') ++end;
    if (left_ok && end < line.size() && line[end] == '(') return true;
    pos += 1;
  }
  return false;
}

bool Suppressed(const StrippedSource& file, size_t line_idx,
                const std::string& rule) {
  const auto mentions = [&](const std::string& comment,
                            std::string_view marker) {
    const size_t pos = comment.find(marker);
    if (pos == std::string::npos) return false;
    const size_t after = pos + marker.size();
    if (after >= comment.size() || comment[after] != '(') return true;  // Bare.
    const size_t close = comment.find(')', after);
    if (close == std::string::npos) return true;
    const std::string list = comment.substr(after + 1, close - after - 1);
    return list.find(rule) != std::string::npos;
  };
  const std::string& own = file.comments[line_idx];
  // The NEXTLINE marker also contains "NOLINT"; check the longer marker
  // first and only accept a plain NOLINT that is not a NOLINTNEXTLINE.
  if (own.find("NOLINT") != std::string::npos &&
      own.find("NOLINTNEXTLINE") == std::string::npos &&
      mentions(own, "NOLINT")) {
    return true;
  }
  if (line_idx > 0 && mentions(file.comments[line_idx - 1], "NOLINTNEXTLINE")) {
    return true;
  }
  return false;
}

std::vector<std::string> StringLiteralsOnLine(const StrippedSource& file,
                                              size_t line_idx) {
  std::vector<std::string> out;
  if (line_idx >= file.code.size()) return out;
  const std::string& code = file.code[line_idx];
  const std::string& raw =
      line_idx < file.raw.size() ? file.raw[line_idx] : std::string();
  size_t pos = 0;
  while ((pos = code.find('"', pos)) != std::string::npos) {
    // Literal contents are blanked in `code`, so the next '"' closes it
    // (a literal that continues past end-of-line has no closer: skip it).
    const size_t close = code.find('"', pos + 1);
    if (close == std::string::npos) break;
    if (close < raw.size()) {
      out.push_back(raw.substr(pos + 1, close - pos - 1));
    }
    pos = close + 1;
  }
  return out;
}

std::string RepoRelative(const std::string& generic_path) {
  for (const char* root :
       {"src/", "tests/", "tools/", "bench/", "examples/", "docs/"}) {
    const size_t pos = generic_path.rfind(root);
    if (pos != std::string::npos) return generic_path.substr(pos);
  }
  return generic_path;
}

}  // namespace sketchml::analysis
