#ifndef SKETCHML_COMMON_JSON_H_
#define SKETCHML_COMMON_JSON_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sketchml::common {

/// Minimal immutable JSON document model, sized for the observability
/// pipeline's own dumps (metrics JSONL, run time-series, Chrome traces).
/// Strict parser: rejects trailing commas, bare words, unterminated
/// strings, and NaN/Inf — exactly what our writers must never emit.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON value spanning all of `text`.
  static Result<JsonValue> Parse(std::string_view text);

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  bool bool_value() const { return number_ != 0.0; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }

  /// Object members in document order (JSONL metric dumps rely on it).
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;

  /// Typed lookups with defaults; the default also covers wrong types.
  double NumberOr(std::string_view key, double default_value) const;
  std::string StringOr(std::string_view key,
                       std::string_view default_value) const;

 private:
  Type type_ = Type::kNull;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

/// Writes `s` as a JSON string literal. Every byte below 0x20 is escaped
/// (RFC 8259 §7): the `\b \t \n \f \r` short forms, `\u00XX` for the
/// rest; other bytes pass through unchanged.
void AppendJsonString(std::ostream& out, std::string_view s);

/// Writes `v` as a JSON number: integral values below 9e15 without an
/// exponent, others with %.17g, and non-finite values as `null`.
void AppendJsonNumber(std::ostream& out, double v);

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_JSON_H_
