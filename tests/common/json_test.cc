#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"

namespace crowdfusion::common {
namespace {

TEST(JsonValueTest, ScalarsRoundTrip) {
  EXPECT_EQ(JsonValue(nullptr).Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, Int64ExtremesAreLossless) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (const int64_t value : {max, min, int64_t{0}}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed->is_int());
    EXPECT_EQ(parsed->GetInt().value(), value);
  }
}

TEST(JsonValueTest, DoublesAreBitExact) {
  for (const double value : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                             -0.030000000000000002}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->GetDouble().value(), value);
  }
}

TEST(JsonValueTest, DoublesUseTheirShortestSpelling) {
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(JsonValue(0.1).Dump(), "0.1");
  EXPECT_EQ(JsonValue(1.0).Dump(), "1.0");
  EXPECT_EQ(JsonValue(-0.0).Dump(), "-0.0");
  EXPECT_EQ(JsonValue(1e21).Dump(), "1e+21");
  EXPECT_EQ(JsonValue(5e-324).Dump(), "5e-324");
  EXPECT_EQ(JsonValue(max).Dump(), "1.7976931348623157e+308");
}

TEST(JsonValueTest, RandomBitPatternsRoundTripBitExactly) {
  Rng rng(20240515);
  int finite = 0;
  for (int i = 0; i < 100000; ++i) {
    const double value = std::bit_cast<double>(rng.NextUint64());
    if (!std::isfinite(value)) continue;
    ++finite;
    const std::string text = JsonValue(value).Dump();
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    ASSERT_EQ(parsed->kind(), JsonValue::Kind::kDouble) << text;
    const double back = parsed->GetDouble().value();
    ASSERT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(value))
        << text;
  }
  EXPECT_GT(finite, 99000);
}

TEST(JsonValueTest, InfinityConvention) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonValue(inf).Dump(), "1e999");
  EXPECT_EQ(JsonValue(-inf).Dump(), "-1e999");
  auto parsed = JsonValue::Parse("1e999");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isinf(parsed->GetDouble().value()));
  auto negative = JsonValue::Parse("-1e999");
  ASSERT_TRUE(negative.ok());
  EXPECT_LT(negative->GetDouble().value(), 0);
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
}

TEST(JsonValueTest, IntegralDoublesKeepTheirKind) {
  for (const double value : {2.0, -0.0, 1e20}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind(), JsonValue::Kind::kDouble) << value;
    EXPECT_EQ(*parsed, JsonValue(value)) << value;
  }
}

TEST(JsonValueTest, UnderflowParsesToZeroNotInfinity) {
  // from_chars reports out-of-range for underflow too; the parser must
  // not turn a vanishing literal into infinity.
  for (const char* tiny : {"1e-999", "-1e-999", "4.9e-400"}) {
    auto parsed = JsonValue::Parse(tiny);
    ASSERT_TRUE(parsed.ok()) << tiny;
    EXPECT_NEAR(parsed->GetDouble().value(), 0.0, 1e-300) << tiny;
    EXPECT_FALSE(std::isinf(parsed->GetDouble().value())) << tiny;
  }
}

TEST(JsonValueTest, StringsEscape) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  auto parsed = JsonValue::Parse(JsonValue(nasty).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString().value(), nasty);
  // Unicode escapes decode to UTF-8.
  auto unicode = JsonValue::Parse(R"("\u00e9\u0041")");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(unicode->GetString().value(), "\xc3\xa9"
                                          "A");
}

TEST(JsonValueTest, ObjectsKeepInsertionOrder) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("zulu", 1);
  object.Set("alpha", 2);
  object.Set("mike", JsonValue::MakeArray());
  EXPECT_EQ(object.Dump(), R"({"zulu":1,"alpha":2,"mike":[]})");
  // Replacing a member keeps its slot.
  object.Set("zulu", 9);
  EXPECT_EQ(object.Dump(), R"({"zulu":9,"alpha":2,"mike":[]})");
  // Find / Get.
  EXPECT_NE(object.Find("alpha"), nullptr);
  EXPECT_EQ(object.Find("beta"), nullptr);
  EXPECT_FALSE(object.Get("beta").ok());
}

TEST(JsonValueTest, PrettyPrintIsReparsable) {
  auto parsed = JsonValue::Parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": [true, false]}})");
  ASSERT_TRUE(parsed.ok());
  auto reparsed = JsonValue::Parse(parsed->Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
  EXPECT_EQ(parsed->Dump(), reparsed->Dump());
}

TEST(JsonValueTest, ParseErrors) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "nul", "{\"a\" 1}", "{\"a\":1,}", "[1 2]",
        "\"\\q\"", "\"unterminated", "01x", "-", "{}extra",
        "{\"a\":1,\"a\":2}", "\"\\ud800\""}) {
    auto parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

void ExpectMalformedNumber(const char* text) {
  auto parsed = JsonValue::Parse(text);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("malformed number"), std::string::npos) << message;
}

TEST(JsonValueTest, RejectsNumbersRfc8259Forbids) {
  // Leading zeros, a bare '.', and a fraction or exponent without digits.
  for (const char* bad : {"01", "-01", "00", "1.", ".5", "-.5", "1.e3"}) {
    ExpectMalformedNumber(bad);
  }
  // The same inside documents, and truncated exponents.
  for (const char* bad : {"[01]", "{\"a\":1.}", "1e", "1e+", "-"}) {
    ExpectMalformedNumber(bad);
  }
  for (const char* good : {"0", "-0", "0.5", "-0.5", "10", "1e3", "1E-3"}) {
    EXPECT_TRUE(JsonValue::Parse(good).ok()) << "rejected: " << good;
  }
}

TEST(JsonValueTest, DepthCapStopsNestingBombs) {
  EXPECT_FALSE(JsonValue::Parse(std::string(1000, '[')).ok());
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "{\"a\":";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TypedAccessorsRejectMismatches) {
  const JsonValue value(42);
  EXPECT_TRUE(value.GetInt().ok());
  EXPECT_TRUE(value.GetDouble().ok());  // ints widen to double
  EXPECT_FALSE(value.GetBool().ok());
  EXPECT_FALSE(value.GetString().ok());
  EXPECT_FALSE(JsonValue(0.5).GetInt().ok());
}

TEST(JsonWriterTest, WritesTheBytesOfTheTree) {
  const double inf = std::numeric_limits<double>::infinity();
  JsonValue inner = JsonValue::MakeArray();
  inner.Append(JsonValue::MakeArray());
  inner.Append(JsonValue::MakeObject());
  inner.Append(std::nan(""));
  inner.Append(-inf);
  inner.Append(1e21);
  JsonValue tree = JsonValue::MakeObject();
  tree.Set("k\"ey\n", "v\\al\x01\xc3\xa9");
  tree.Set("n", nullptr);
  tree.Set("b", false);
  tree.Set("i", std::numeric_limits<int64_t>::min());
  tree.Set("d", -0.0);
  tree.Set("a", inner);

  std::string out;
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Key("k\"ey\n");
  writer.String("v\\al\x01\xc3\xa9");
  writer.Key("n");
  writer.Null();
  writer.Key("b");
  writer.Bool(false);
  writer.Key("i");
  writer.Int(std::numeric_limits<int64_t>::min());
  writer.Key("d");
  writer.Double(-0.0);
  writer.Key("a");
  writer.BeginArray();
  writer.BeginArray();
  writer.EndArray();
  writer.BeginObject();
  writer.EndObject();
  writer.Double(std::nan(""));
  writer.Double(-inf);
  writer.Double(1e21);
  writer.EndArray();
  writer.EndObject();
  EXPECT_EQ(out, tree.Dump());
}

}  // namespace
}  // namespace crowdfusion::common
