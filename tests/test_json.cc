/**
 * @file
 * Unit tests for the minimal JSON writer/parser pair: escaping,
 * number formatting, writer structure, parser errors, and full
 * write -> parse round trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

using namespace mcnsim::sim;

TEST(JsonQuote, EscapesSpecials)
{
    EXPECT_EQ(json::quote("plain"), "\"plain\"");
    EXPECT_EQ(json::quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json::quote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(json::quote("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(json::quote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonNumber, RoundTripFormatting)
{
    EXPECT_EQ(json::formatNumber(0.0), "0");
    EXPECT_EQ(json::formatNumber(42.0), "42");
    EXPECT_EQ(json::formatNumber(-7.0), "-7");
    EXPECT_EQ(json::formatNumber(16.5), "16.5");
    // Non-finite values have no JSON spelling.
    EXPECT_EQ(json::formatNumber(std::nan("")), "null");
    EXPECT_EQ(json::formatNumber(INFINITY), "null");
    // Round-trip: parse(format(v)) == v bit-for-bit.
    for (double v : {0.1, 1.0 / 3.0, 9.533517425605533, 1e-300}) {
        double back = json::parse(json::formatNumber(v)).asNumber();
        EXPECT_EQ(back, v);
    }
}

TEST(JsonWriter, NestedStructure)
{
    std::ostringstream os;
    json::Writer w(os, 0);
    w.beginObject();
    w.kv("name", "x");
    w.key("list");
    w.beginArray();
    w.value(1);
    w.value(true);
    w.null();
    w.endArray();
    w.kv("n", 2.5);
    w.endObject();

    auto v = json::parse(os.str());
    EXPECT_EQ(v["name"].asString(), "x");
    EXPECT_EQ(v["list"].size(), 3u);
    EXPECT_DOUBLE_EQ(v["list"][0].asNumber(), 1.0);
    EXPECT_TRUE(v["list"][1].asBool());
    EXPECT_TRUE(v["list"][2].isNull());
    EXPECT_DOUBLE_EQ(v["n"].asNumber(), 2.5);
}

TEST(JsonParse, AcceptsWhitespaceAndUnicodeEscapes)
{
    auto v = json::parse("  { \"k\" : [ 1 , 2 ] , \"s\" : "
                         "\"\\u0041\\u00e9\" }  ");
    EXPECT_EQ(v["k"].size(), 2u);
    EXPECT_EQ(v["s"].asString(), "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), FatalError);
    EXPECT_THROW(json::parse("{"), FatalError);
    EXPECT_THROW(json::parse("[1,]"), FatalError);
    EXPECT_THROW(json::parse("{\"a\":1,}"), FatalError);
    EXPECT_THROW(json::parse("nul"), FatalError);
    EXPECT_THROW(json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(json::parse("1 2"), FatalError);
}

TEST(JsonValue, LookupAndTypeErrors)
{
    auto v = json::parse("{\"a\": 1, \"b\": \"s\"}");
    EXPECT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v["missing"], FatalError);
    EXPECT_THROW(v["b"].asNumber(), FatalError);
    EXPECT_THROW(v["a"].asArray(), FatalError);
}

TEST(JsonRoundTrip, WriterOutputParsesBack)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.kv("bench", "fig8a_iperf");
    w.kv("schema_version", std::uint64_t{1});
    w.key("metrics");
    w.beginObject();
    w.kv("gbps", 5.57);
    w.kv("quoted \"name\"", -0.25);
    w.endObject();
    w.key("empty");
    w.beginArray();
    w.endArray();
    w.endObject();

    auto v = json::parse(os.str());
    EXPECT_EQ(v["bench"].asString(), "fig8a_iperf");
    EXPECT_DOUBLE_EQ(v["schema_version"].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(v["metrics"]["gbps"].asNumber(), 5.57);
    EXPECT_DOUBLE_EQ(v["metrics"]["quoted \"name\""].asNumber(),
                     -0.25);
    EXPECT_EQ(v["empty"].size(), 0u);
}

namespace {

/** Bytes that steer a hand-written parser into its error paths:
 *  structural characters, escapes, sign/exponent, NUL and a
 *  non-ASCII lead byte. */
constexpr char mutationBytes[] = {'"', '\\', '{', '}', '[', ']', ',',
                                  ':', '-', 'e', '.', 'u', '\0',
                                  '\xff'};

/** Parse @p text; it must either succeed or throw FatalError with a
 *  message. Any other exception, or a crash, fails the test. */
bool
parsesOrDiagnoses(const std::string &text)
{
    try {
        (void)json::parse(text);
        return true;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()), "") << text;
        return false;
    }
}

} // namespace

TEST(JsonParse, PrefixesAndMutationsParseOrDiagnose)
{
    const std::string doc =
        "{\"bench\": \"fig8a\", \"n\": -12.5e-3, \"ok\": true,"
        " \"none\": null, \"esc\": \"a\\\"b\\\\c\\n\\u00e9\","
        " \"list\": [1, 2.0, false, [], {}], \"obj\": {\"k\": [0]}}";
    ASSERT_TRUE(parsesOrDiagnoses(doc));
    for (std::size_t len = 0; len <= doc.size(); ++len) {
        const std::string prefix = doc.substr(0, len);
        parsesOrDiagnoses(prefix);
        // One single-byte mutation per position, rotating through
        // the steering bytes so every byte meets every position.
        for (std::size_t pos = 0; pos < len; ++pos) {
            std::string m = prefix;
            m[pos] = mutationBytes[(len + pos) % sizeof(mutationBytes)];
            parsesOrDiagnoses(m);
        }
    }
}
