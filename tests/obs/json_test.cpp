// JSON emission: escaping, deterministic number formatting, the streaming
// writer's comma placement, and writer output read back through JsonValue.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/json_value.h"

namespace treeaa::obs {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, ShortestRoundTripForm) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(-3.0), "-3");
  EXPECT_EQ(json_number(1e100), "1e+100");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, ObjectsArraysAndCommas) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("n");
  w.value(std::uint64_t{16});
  w.key("name");
  w.value("tree aa");
  w.key("ok");
  w.value(true);
  w.key("list");
  w.begin_array();
  w.value(1.5);
  w.null();
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, "{\"n\":16,\"name\":\"tree aa\",\"ok\":true,"
                 "\"list\":[1.5,null,{}]}");
}

TEST(JsonWriter, RawFragmentsPlaceCommasLikeValues) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("a");
  w.raw("[1,2]");
  w.key("b");
  w.raw("\"x\"");
  w.end_object();
  EXPECT_EQ(out, "{\"a\":[1,2],\"b\":\"x\"}");
}

// Reading goes through the one JSON reader: everything the writer emits
// parses back as a JsonValue.
TEST(JsonValueReadsWriter, RoundTripsWriterOutput) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("ev");
  w.value("send");
  w.key("round");
  w.value(std::uint64_t{3});
  w.key("ok");
  w.value(false);
  w.key("x");
  w.null();
  w.end_object();

  const auto parsed = JsonValue::parse(out);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_flat_object());
  const auto& members = parsed->members();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].first, "ev");
  EXPECT_EQ(members[0].second.as_string(), "send");
  EXPECT_EQ(members[1].second.as_number(), 3.0);
  EXPECT_FALSE(members[2].second.as_bool());
  EXPECT_TRUE(members[3].second.is_null());
}

TEST(JsonValueReadsWriter, EscapesRoundTrip) {
  const std::string raw = "a\"b\n\\c\t\x01";
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("k");
  w.value(raw);
  w.end_object();
  EXPECT_EQ(out, "{\"k\":\"a\\\"b\\n\\\\c\\t\\u0001\"}");
  const auto parsed = JsonValue::parse(out);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("k")->as_string(), raw);
}

TEST(JsonValueReadsWriter, FlatObjectCheckRejectsNestingAndGarbage) {
  // Nested members parse but are not flat.
  for (const char* nested : {"{\"k\":{}}", "{\"k\":[1]}"}) {
    const auto parsed = JsonValue::parse(nested);
    ASSERT_TRUE(parsed.has_value()) << nested;
    EXPECT_FALSE(parsed->is_flat_object()) << nested;
  }
  EXPECT_FALSE(JsonValue::parse("[1]")->is_flat_object());
  EXPECT_TRUE(JsonValue::parse("{}")->is_flat_object());
  // Malformed documents do not parse at all.
  EXPECT_FALSE(JsonValue::parse("not json").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"k\":1,}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"k\":1} extra").has_value());
}

}  // namespace
}  // namespace treeaa::obs
