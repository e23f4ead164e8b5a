#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

namespace sketchml::common {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_EQ(JsonValue::Parse("null")->type(), JsonValue::Type::kNull);
  EXPECT_TRUE(JsonValue::Parse("true")->bool_value());
  EXPECT_FALSE(JsonValue::Parse("false")->bool_value());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2")->number_value(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->string_value(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto parsed = JsonValue::Parse(
      R"({"a":[1,2,{"b":"x"}],"c":{"d":null},"e":3})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array_items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_items()[0].number_value(), 1.0);
  EXPECT_EQ(a->array_items()[2].StringOr("b", ""), "x");
  EXPECT_DOUBLE_EQ(root.NumberOr("e", 0.0), 3.0);
  EXPECT_DOUBLE_EQ(root.NumberOr("missing", -1.0), -1.0);
}

TEST(JsonTest, ObjectItemsPreserveDocumentOrder) {
  auto parsed = JsonValue::Parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(parsed.ok());
  const auto& items = parsed->object_items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "z");
  EXPECT_EQ(items[1].first, "a");
  EXPECT_EQ(items[2].first, "m");
}

TEST(JsonTest, DecodesEscapes) {
  auto parsed = JsonValue::Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "a\"b\\c\nd\x41");
}

TEST(JsonTest, DecodesUnicodeEscapeToUtf8) {
  auto parsed = JsonValue::Parse("\"\\u00e9\"");  // e-acute.
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), "\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,2,]").ok());     // Trailing comma.
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());        // Bare word.
  EXPECT_FALSE(JsonValue::Parse("NaN").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());        // Trailing content.
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());  // Missing colon.
  EXPECT_FALSE(JsonValue::Parse("1.2.3").ok());      // Malformed number.
}

TEST(JsonTest, FindOnNonObjectReturnsNull) {
  auto parsed = JsonValue::Parse("[1,2]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("a"), nullptr);
}

TEST(JsonTest, TypedLookupsCoverWrongTypes) {
  auto parsed = JsonValue::Parse(R"({"s":"x","n":5})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->NumberOr("s", -1.0), -1.0);  // Wrong type.
  EXPECT_EQ(parsed->StringOr("n", "dflt"), "dflt");
  EXPECT_EQ(parsed->StringOr("s", ""), "x");
}

TEST(JsonTest, WritersRoundTripEveryAsciiByte) {
  std::string text;
  for (int c = 1; c < 0x80; ++c) text.push_back(static_cast<char>(c));
  std::ostringstream out;
  AppendJsonString(out, text);
  for (const char c : out.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << out.str();
  }
  EXPECT_NE(out.str().find("\\t"), std::string::npos);
  EXPECT_NE(out.str().find("\\u0001"), std::string::npos);
  auto parsed = JsonValue::Parse(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string_value(), text);

  std::ostringstream numbers;
  AppendJsonNumber(numbers, 42.0);
  numbers << ' ';
  AppendJsonNumber(numbers, 0.125);
  numbers << ' ';
  AppendJsonNumber(numbers, std::nan(""));
  EXPECT_EQ(numbers.str(), "42 0.125 null");
}

TEST(JsonTest, RoundTripsMetricsSamplerShapes) {
  // The exact shapes the sampler emits must stay parseable.
  const std::string header =
      R"({"type":"run","schema":1,"git_sha":"abc123","start_unix_ms":1,)"
      R"("meta":{"codec":"sketchml","workers":"4"}})";
  auto run = JsonValue::Parse(header);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->StringOr("type", ""), "run");
  EXPECT_EQ(run->Find("meta")->StringOr("workers", ""), "4");

  const std::string sample =
      R"({"type":"sample","t_ns":123,"reason":"epoch",)"
      R"("dropped_trace_events":0,)"
      R"("counters":{"trainer/compute_seconds":0.125,)"
      R"("trainer/worker_seconds{worker=0,phase=compute}":0.0625},)"
      R"("gauges":{"trainer/train_loss":0.69},)"
      R"("histograms":{"threadpool/task_run_ns{pool=trainer}":)"
      R"({"count":10,"sum":1000,"min":50,"max":200}}})";
  auto parsed = JsonValue::Parse(sample);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(
      counters->NumberOr("trainer/worker_seconds{worker=0,phase=compute}",
                         0.0),
      0.0625);
}

}  // namespace
}  // namespace sketchml::common
