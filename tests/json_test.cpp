// Unit tests for vnet::obs::json, the one JSON writer and parser: the
// strict RFC 8259 number grammar, escaping round-trips, canonical key
// order, hex-encoded 64-bit integers, and the nesting limit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace vnet::obs::json {
namespace {

bool parses(const std::string& text, Value* out = nullptr) {
  Value v;
  std::string error;
  const bool ok = parse(text, out != nullptr ? out : &v, &error);
  EXPECT_EQ(ok, error.empty()) << text;
  return ok;
}

TEST(Json, RejectsNumbersOutsideTheRfcGrammar) {
  for (const char* bad :
       {"inf", "-infinity", "0x10", "+1", "01", "1.", ".5", "-", "1e", "1e+",
        "[1.]", "{\"a\":01}", "nan"}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(Json, AcceptsRfcNumbers) {
  const struct {
    const char* text;
    double want;
  } cases[] = {{"0", 0.0},     {"-0", -0.0},      {"1.5e-3", 1.5e-3},
               {"1E+2", 100.0}, {"-12.25", -12.25}, {"7e2", 700.0}};
  for (const auto& c : cases) {
    Value v;
    ASSERT_TRUE(parses(c.text, &v)) << c.text;
    ASSERT_TRUE(v.is_number()) << c.text;
    EXPECT_EQ(v.as_number(), c.want) << c.text;
  }
  Value neg_zero;
  ASSERT_TRUE(parses("-0", &neg_zero));
  EXPECT_TRUE(std::signbit(neg_zero.as_number()));
  // Parsed numbers reach as_int(); one outside int64 gets the fallback.
  Value huge;
  ASSERT_TRUE(parses("-1e300", &huge));
  EXPECT_EQ(huge.as_int(7), 7);
  EXPECT_EQ(Value(-12.75).as_int(7), -12);
}

TEST(Json, EscapedStringsRoundTripThroughWriterAndParse) {
  std::string nasty;
  for (int c = 0; c < 0x20; ++c) nasty.push_back(static_cast<char>(c));
  nasty += "\"quoted\" back\\slash / \x7f caf\xc3\xa9";

  std::string doc;
  Writer w(doc);
  w.begin_object().key(nasty).string(nasty).end_object();
  // Nothing below 0x20 reaches the document unescaped.
  for (char c : doc) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);

  Value v;
  ASSERT_TRUE(parses(doc, &v)) << doc;
  ASSERT_EQ(v.as_object().size(), 1u);
  EXPECT_EQ(v.as_object().begin()->first, nasty);
  EXPECT_EQ(v[nasty].as_string(), nasty);
}

TEST(Json, WriterSpellsNumbersCanonically) {
  std::string doc;
  Writer w(doc);
  w.begin_array()
      .number(3.0)
      .number(-0.0)
      .number(1.5)
      .number(0.1)
      .number(1e17)
      .number(std::nan(""))
      .integer(INT64_MIN)
      .boolean(true)
      .null()
      .end_array();
  EXPECT_EQ(doc, "[3,0,1.5,0.1,1e+17,null,-9223372036854775808,true,null]");
}

TEST(Json, DumpSortsKeysAndIndents) {
  Value v;
  v["zeta"] = Value(1);
  v["alpha"] = Value("x");
  v["mid"] = Value(Value::Array{Value(true), Value(Value::Object{})});
  v["empty"] = Value(Value::Array{});
  EXPECT_EQ(v.dump(),
            "{\"alpha\":\"x\",\"empty\":[],\"mid\":[true,{}],\"zeta\":1}");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"alpha\": \"x\",\n"
            "  \"empty\": [],\n"
            "  \"mid\": [\n"
            "    true,\n"
            "    {}\n"
            "  ],\n"
            "  \"zeta\": 1\n"
            "}");
  Value back;
  ASSERT_TRUE(parses(v.dump(2), &back));
  EXPECT_EQ(back.dump(), v.dump());
}

TEST(Json, HexU64RoundTrips) {
  for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{0x1b2c3d4e5f607182},
                          ~std::uint64_t{0}}) {
    Value parsed;
    ASSERT_TRUE(parses(hex_u64(x).dump(), &parsed));
    EXPECT_EQ(parse_hex_u64(parsed), x);
  }
  EXPECT_EQ(parse_hex_u64(Value("12"), 7), 7u);
  EXPECT_EQ(parse_hex_u64(Value("0xzz"), 7), 7u);
  EXPECT_EQ(parse_hex_u64(Value("0x1ffffffffffffffff"), 7), 7u);  // 65 bits
}

TEST(Json, RejectsOverDeepNesting) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parses(nested(64)));
  Value v;
  std::string error;
  EXPECT_FALSE(parse(nested(100000), &v, &error));
  EXPECT_EQ(error, "nesting too deep");
}

TEST(Json, RejectsTrailingAndTruncatedInput) {
  for (const char* bad : {"{} {}", "[1,]", "{\"a\" 1}", "\"open", "tru",
                          "[1", "\"\\u12\"", "\"\\q\""}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

}  // namespace
}  // namespace vnet::obs::json
