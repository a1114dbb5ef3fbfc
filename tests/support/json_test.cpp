#include "support/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace hicsync::support {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriter, PrettyObjectMatchesBenchReportShape) {
  JsonWriter w;
  w.begin_object()
      .key("bench")
      .value("demo")
      .key("n")
      .value(std::int64_t{3})
      .key("ok")
      .value(true)
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n  \"bench\": \"demo\",\n  \"n\": 3,\n  \"ok\": true\n}");
}

TEST(JsonWriter, CompactModeAndNesting) {
  JsonWriter w(/*indent=*/0);
  w.begin_object()
      .key("a")
      .begin_array()
      .value(std::int64_t{1})
      .value(std::int64_t{2})
      .end_array()
      .key("b")
      .begin_object()
      .key("c")
      .value_null()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), "{\"a\": [1,2],\"b\": {\"c\": null}}");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w(0);
  w.begin_object().key("x").raw("{\"pre\": 1}").end_object();
  EXPECT_EQ(w.str(), "{\"x\": {\"pre\": 1}}");
}

TEST(JsonNumber, NonFiniteIsWrittenAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json_number(inf), "null");
  EXPECT_EQ(json_number(-inf), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  // The writer's output stays parseable.
  JsonWriter w(0);
  w.begin_array().value(inf).value(1.5).end_array();
  EXPECT_EQ(w.str(), "[null,1.5]");
  JsonValue doc;
  ASSERT_TRUE(parse_json(w.str(), &doc));
  EXPECT_TRUE(doc.elements[0].is_null());
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter w;
  w.begin_object()
      .key("name")
      .value("a \"quoted\" name")
      .key("pi")
      .value(3.25)
      .key("list")
      .begin_array()
      .value(false)
      .value_null()
      .end_array()
      .end_object();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(w.str(), &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->string_value, "a \"quoted\" name");
  EXPECT_DOUBLE_EQ(doc.find("pi")->number_value, 3.25);
  ASSERT_TRUE(doc.find("list")->is_array());
  EXPECT_EQ(doc.find("list")->elements.size(), 2u);
  EXPECT_FALSE(doc.find("list")->elements[0].bool_value);
  EXPECT_TRUE(doc.find("list")->elements[1].is_null());
}

TEST(JsonParse, PreservesMemberOrderAndNumbers) {
  JsonValue doc;
  ASSERT_TRUE(parse_json(
      R"({"z": 1, "a": -2.5e2, "m": 9007199254740992})", &doc));
  ASSERT_EQ(doc.members.size(), 3u);
  EXPECT_EQ(doc.members[0].first, "z");
  EXPECT_EQ(doc.members[1].first, "a");
  EXPECT_DOUBLE_EQ(doc.members[1].second.number_value, -250.0);
  EXPECT_DOUBLE_EQ(doc.members[2].second.number_value, 9007199254740992.0);
}

TEST(JsonParse, RejectsNumbersPastDoubleRange) {
  for (const char* text : {"1e999", "-1e999", "[1, 1e400]",
                           "{\"overhead_pct\": -1e999}"}) {
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parse_json(text, &doc, &error)) << text;
    EXPECT_NE(error.find("number out of range"), std::string::npos) << error;
  }
  // The largest finite doubles and underflow to zero are still numbers.
  JsonValue doc;
  ASSERT_TRUE(parse_json("[1.7976931348623157e308, -1e308, 1e-999]", &doc));
  EXPECT_DOUBLE_EQ(doc.elements[0].number_value, 1.7976931348623157e308);
  EXPECT_DOUBLE_EQ(doc.elements[2].number_value, 0.0);
}

TEST(JsonParse, RejectsMalformedInput) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": }", &doc, &error));
  EXPECT_FALSE(parse_json("[1, 2", &doc, &error));
  EXPECT_FALSE(parse_json("{\"a\": 1} trailing", &doc, &error));
  EXPECT_FALSE(parse_json("\"unterminated", &doc, &error));
  EXPECT_FALSE(error.empty());
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParse, AcceptsNestingUpToTheLimit) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(parse_json(nested_arrays(kJsonMaxDepth), &doc, &error)) << error;
  std::string objects;  // objects count toward the same limit
  for (int i = 0; i < kJsonMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(static_cast<std::size_t>(kJsonMaxDepth), '}');
  EXPECT_TRUE(parse_json(objects, &doc, &error)) << error;
}

TEST(JsonParse, RejectsNestingPastTheLimit) {
  for (int depth : {kJsonMaxDepth + 1, 100000}) {
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parse_json(nested_arrays(depth), &doc, &error)) << depth;
    EXPECT_NE(error.find("kJsonMaxDepth"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace hicsync::support
