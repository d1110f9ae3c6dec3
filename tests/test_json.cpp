// Tests for the minimal JSON layer (src/support/json.*) backing the trace
// export and the BENCH_*.json artifacts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "support/json.h"
#include "support/random.h"

namespace wsp {
namespace {

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(json::Value().is_null());
  EXPECT_EQ(json::Value(true).as_bool(), true);
  EXPECT_EQ(json::Value(2.5).as_number(), 2.5);
  EXPECT_EQ(json::Value(7).as_number(), 7.0);
  EXPECT_EQ(json::Value("hi").as_string(), "hi");
  EXPECT_THROW(json::Value(1.0).as_string(), std::runtime_error);
  EXPECT_THROW(json::Value("x").as_number(), std::runtime_error);
}

TEST(Json, ObjectAndArrayBuilders) {
  json::Value doc = json::Value::object();
  doc["a"] = json::Value(1);
  doc["b"] = json::Value::array();
  doc["b"].push_back(json::Value("x"));
  doc["b"].push_back(json::Value());
  EXPECT_TRUE(doc.has("a"));
  EXPECT_FALSE(doc.has("z"));
  EXPECT_THROW(doc.at("z"), std::runtime_error);
  EXPECT_EQ(doc.at("b").size(), 2u);
  EXPECT_EQ(doc.at("b").items()[0].as_string(), "x");
  EXPECT_TRUE(doc.at("b").items()[1].is_null());
}

TEST(Json, DumpCompactAndIndented) {
  json::Value doc = json::Value::object();
  doc["n"] = json::Value(42);
  doc["s"] = json::Value("v");
  EXPECT_EQ(doc.dump(), "{\"n\":42,\"s\":\"v\"}");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find("\n  \"n\": 42"), std::string::npos);
}

TEST(Json, IntegersPrintExactly) {
  // Cycle counts are large integers; they must not pick up exponents.
  json::Value v(9007199254740991.0);  // 2^53 - 1
  EXPECT_EQ(v.dump(), "9007199254740991");
  EXPECT_EQ(json::Value(0).dump(), "0");
  EXPECT_EQ(json::Value(-17).dump(), "-17");
  EXPECT_EQ(json::Value(2.5).dump(), "2.5");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(json::Value("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      "{\"arr\":[1,2.5,-3,true,false,null,\"s\\u0041\"],"
      "\"nested\":{\"k\":\"v\"}}";
  const json::Value doc = json::Value::parse(text);
  const auto& arr = doc.at("arr").items();
  ASSERT_EQ(arr.size(), 7u);
  EXPECT_EQ(arr[0].as_number(), 1.0);
  EXPECT_EQ(arr[1].as_number(), 2.5);
  EXPECT_EQ(arr[2].as_number(), -3.0);
  EXPECT_TRUE(arr[3].as_bool());
  EXPECT_FALSE(arr[4].as_bool());
  EXPECT_TRUE(arr[5].is_null());
  EXPECT_EQ(arr[6].as_string(), "sA");  // \u0041 == 'A'
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(json::Value::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, ParseUnicodeEscapesToUtf8) {
  const json::Value doc =
      json::Value::parse("[\"\\u00e9\", \"\\u20ac\"]");
  EXPECT_EQ(doc.items()[0].as_string(), "\xc3\xa9");      // e-acute, 2-byte UTF-8
  EXPECT_EQ(doc.items()[1].as_string(), "\xe2\x82\xac");  // euro sign, 3-byte UTF-8
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(json::Value::parse(""), std::runtime_error);
  EXPECT_THROW(json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("'single'"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("nul"), std::runtime_error);
}

TEST(Json, ParseWhitespaceTolerant) {
  const json::Value doc = json::Value::parse(" { \"a\" : [ 1 , 2 ] } \n");
  EXPECT_EQ(doc.at("a").size(), 2u);
}

// `depth` nested containers around a 0, each level an array or an object
// ({"k": ...}) as `rng` picks, with random blanks between tokens.
std::string nested(std::size_t depth, Rng& rng) {
  std::string open, close;
  for (std::size_t i = 0; i < depth; ++i) {
    const bool object = rng.next_u64() & 1;
    open += object ? "{\"k\":" : "[";
    close += object ? "}" : "]";
    if (rng.next_u64() % 4 == 0) open += ' ';
  }
  return open + "0" + std::string(close.rbegin(), close.rend());
}

std::size_t depth_of(const json::Value& v) {
  std::size_t d = 0;
  for (const json::Value* p = &v; p->is_array() || p->is_object(); ++d) {
    p = p->is_array() ? &p->items().front() : &p->at("k");
  }
  return d;
}

TEST(Json, NestingUpToTheLimitParses) {
  const std::string arrays =
      std::string(json::kMaxDepth, '[') + "1" + std::string(json::kMaxDepth, ']');
  EXPECT_EQ(depth_of(json::Value::parse(arrays)), json::kMaxDepth);
  Rng rng(71);
  EXPECT_EQ(depth_of(json::Value::parse(nested(json::kMaxDepth, rng))),
            json::kMaxDepth);
}

TEST(Json, DeepNestingIsATypedError) {
  // What used to overflow the stack (trace2txt exited 139 on this file).
  EXPECT_THROW(json::Value::parse(std::string(300000, '[')), json::DepthError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(json::Value::parse(objects), json::DepthError);
  Rng rng(72);
  EXPECT_THROW(json::Value::parse(nested(json::kMaxDepth + 1, rng)), json::DepthError);
  // Still a runtime_error for callers that catch the general parse failure.
  EXPECT_THROW(json::Value::parse(std::string(json::kMaxDepth + 1, '[')),
               std::runtime_error);
}

// Random depths on both sides of the limit, random array/object mixes, and
// random truncations: every document parses or throws a runtime_error, and
// an untruncated one fails exactly when it nests past kMaxDepth.
TEST(Json, FuzzRandomNestingDepthsAndTruncations) {
  Rng rng(73);
  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t depth = 1 + rng.next_u64() % (2 * json::kMaxDepth);
    std::string doc = nested(depth, rng);
    const bool truncate = rng.next_u64() % 3 == 0;
    if (truncate) doc.resize(rng.next_u64() % doc.size());
    if (!truncate && depth <= json::kMaxDepth) {
      EXPECT_EQ(depth_of(json::Value::parse(doc)), depth) << iter;
    } else if (!truncate) {
      EXPECT_THROW(json::Value::parse(doc), json::DepthError) << iter;
    } else {
      EXPECT_THROW(json::Value::parse(doc), std::runtime_error) << iter;
    }
  }
}

}  // namespace
}  // namespace wsp
