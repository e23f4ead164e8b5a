#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace sketchml::common {

namespace {

std::string TruncateForError(std::string_view text, size_t pos) {
  const std::string_view window = text.substr(pos, 24);
  return "at offset " + std::to_string(pos) + " near '" +
         std::string(window) + "'";
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    SkipSpace();
    JsonValue value;
    SKETCHML_RETURN_IF_ERROR(ParseValue(&value));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing data after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " " +
                                   TruncateForError(text_, pos_));
  }

  Status ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        out->type_ = JsonValue::Type::kBool;
        out->number_ = 1.0;
        return Literal("true");
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        out->number_ = 0.0;
        return Literal("false");
      case 'n':
        out->type_ = JsonValue::Type::kNull;
        return Literal("null");
      default:
        out->type_ = JsonValue::Type::kNumber;
        return ParseNumber(&out->number_);
    }
  }

  Status ParseObject(JsonValue* out) {
    out->type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      std::string key;
      SKETCHML_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (Peek() != ':') return Error("expected ':' in object");
      ++pos_;
      SkipSpace();
      JsonValue value;
      SKETCHML_RETURN_IF_ERROR(ParseValue(&value));
      out->object_.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::Ok();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      JsonValue value;
      SKETCHML_RETURN_IF_ERROR(ParseValue(&value));
      out->array_.push_back(std::move(value));
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::Ok();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (Peek() != '"') return Error("expected string");
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        switch (text_[pos_]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // Decode the code point as UTF-8 (surrogate pairs collapse
            // to '?'); our writers emit it only for control bytes.
            if (pos_ + 4 >= text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return Error("bad \\u escape");
            }
            pos_ += 5;
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code >= 0xD800 && code <= 0xDFFF) {
              out->push_back('?');
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            continue;
          }
          default: return Error("unknown escape");
        }
      }
      out->push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // Closing quote.
    return Status::Ok();
  }

  Status ParseNumber(double* out) {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("malformed number");
    return Status::Ok();
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
    return Status::Ok();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Run();
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double default_value) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number_
                                                : default_value;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view default_value) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string()
             ? value->string_
             : std::string(default_value);
}

void AppendJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\b': out << "\\b"; break;
      case '\t': out << "\\t"; break;
      case '\n': out << "\\n"; break;
      case '\f': out << "\\f"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void AppendJsonNumber(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  // Integers (the common case: counts, bytes) print without exponent.
  if (v == std::floor(v) && std::abs(v) < 9e15) {
    out << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  }
}

}  // namespace sketchml::common
