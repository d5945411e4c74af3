/**
 * @file
 * Unit tests for smoothe::util (RNG, timer, JSON, table, args).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace su = smoothe::util;

TEST(Rng, Deterministic)
{
    su::Rng a(42);
    su::Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    su::Rng a(1);
    su::Rng b(2);
    bool anyDifferent = false;
    for (int i = 0; i < 10; ++i)
        anyDifferent = anyDifferent || (a.next() != b.next());
    EXPECT_TRUE(anyDifferent);
}

TEST(Rng, UniformInRange)
{
    su::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanRoughlyHalf)
{
    su::Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAll)
{
    su::Rng rng(3);
    std::vector<int> histogram(5, 0);
    for (int i = 0; i < 5000; ++i)
        ++histogram[rng.uniformIndex(5)];
    for (int count : histogram)
        EXPECT_GT(count, 700);
}

TEST(Rng, NormalMoments)
{
    su::Rng rng(13);
    double sum = 0.0;
    double sumSq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sumSq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliProbability)
{
    su::Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    su::Rng rng(19);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    std::vector<int> histogram(3, 0);
    for (int i = 0; i < 40000; ++i)
        ++histogram[rng.weightedIndex(weights)];
    EXPECT_EQ(histogram[1], 0);
    EXPECT_NEAR(static_cast<double>(histogram[2]) / histogram[0], 3.0, 0.3);
}

TEST(Rng, ShufflePreservesElements)
{
    su::Rng rng(23);
    std::vector<int> items = {1, 2, 3, 4, 5, 6, 7};
    auto shuffled = items;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, items);
}

TEST(Rng, ForkIndependent)
{
    su::Rng parent(29);
    su::Rng child = parent.fork();
    EXPECT_NE(parent.next(), child.next());
}

TEST(Timer, MeasuresElapsed)
{
    su::Timer timer;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(static_cast<double>(i));
    EXPECT_GE(timer.seconds(), 0.0);
    (void)sink;
}

TEST(Deadline, UnlimitedNeverExpires)
{
    su::Deadline deadline(0.0);
    EXPECT_FALSE(deadline.expired());
    EXPECT_TRUE(std::isinf(deadline.remaining()));
}

TEST(Deadline, TinyBudgetExpires)
{
    su::Deadline deadline(1e-9);
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i)
        sink = sink + i;
    EXPECT_TRUE(deadline.expired());
    (void)sink;
}

// PhaseProfiler moved to src/obs/; its tests now live in test_obs.cpp.

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(su::Json::parse("null")->isNull());
    EXPECT_TRUE(su::Json::parse("true")->asBool());
    EXPECT_FALSE(su::Json::parse("false")->asBool());
    EXPECT_DOUBLE_EQ(su::Json::parse("3.25")->asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(su::Json::parse("-17")->asNumber(), -17.0);
    EXPECT_EQ(su::Json::parse("\"hi\"")->asString(), "hi");
}

TEST(Json, ParsesNested)
{
    const std::string text =
        R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})";
    auto doc = su::Json::parse(text);
    ASSERT_TRUE(doc.has_value());
    const su::Json* a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->asArray().size(), 3u);
    EXPECT_EQ(a->asArray()[2].find("b")->asString(), "c");
}

TEST(Json, RejectsMalformed)
{
    std::string error;
    EXPECT_FALSE(su::Json::parse("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(su::Json::parse("[1,]").has_value());
    EXPECT_FALSE(su::Json::parse("12 34").has_value());
    EXPECT_FALSE(su::Json::parse("\"unterminated").has_value());
}

TEST(Json, EscapesRoundTrip)
{
    su::Json value(std::string("line1\nline2\t\"quoted\"\\"));
    auto parsed = su::Json::parse(value.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), value.asString());
}

TEST(Json, ObjectRoundTripPreservesOrder)
{
    su::Json obj = su::Json::makeObject();
    obj.set("zebra", 1);
    obj.set("apple", 2);
    obj.set("zebra", 3); // replace, keeps position
    const std::string text = obj.dump();
    EXPECT_LT(text.find("zebra"), text.find("apple"));
    auto parsed = su::Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->find("zebra")->asNumber(), 3.0);
}

TEST(Json, UnicodeEscape)
{
    auto parsed = su::Json::parse(R"("Aé")");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), "A\xc3\xa9");
}

TEST(Json, PrettyPrintParses)
{
    su::Json obj = su::Json::makeObject();
    su::Json arr = su::Json::makeArray();
    arr.push(1);
    arr.push("two");
    obj.set("list", std::move(arr));
    auto parsed = su::Json::parse(obj.dumpPretty());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("list")->asArray().size(), 2u);
}

TEST(Table, AlignsColumns)
{
    su::TablePrinter table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer-name", "22"});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(su::formatSeconds(0.0421), "0.04");
    EXPECT_EQ(su::formatSeconds(211.84), "211.8");
    EXPECT_EQ(su::formatPercent(0.044), "4.4%");
    EXPECT_EQ(su::formatPercent(2.2), "220%");
    EXPECT_EQ(su::formatPercent(63.0), "63.0x");
    EXPECT_EQ(su::formatFixed(3.14159, 2), "3.14");
}

TEST(Args, ParsesForms)
{
    const char* argv[] = {"prog", "--alpha", "3", "--beta=x",
                          "--flag", "--gamma=2.5"};
    su::Args args(6, const_cast<char**>(argv));
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_EQ(args.getString("beta", ""), "x");
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_DOUBLE_EQ(args.getDouble("gamma", 0.0), 2.5);
    EXPECT_EQ(args.getInt("missing", 9), 9);
    EXPECT_FALSE(args.has("missing"));
}

TEST(Args, TracksUnrecognizedFlags)
{
    const char* argv[] = {"prog", "--alpha", "3", "--typo=1", "--beta", "x"};
    su::Args args(6, const_cast<char**>(argv));
    EXPECT_EQ(args.flags().size(), 3u);

    // Nothing queried yet: everything the user passed is unrecognized.
    EXPECT_EQ(args.unrecognized().size(), 3u);

    args.getInt("alpha", 0);
    args.getString("beta", "");
    args.acknowledge("gamma"); // known flag that was not passed
    const auto unknown = args.unrecognized();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, TracksMalformedNumbers)
{
    const char* argv[] = {"prog",       "--seeds",   "abc",  "--lr=0.5x",
                          "--max-iters", "-5",       "--ok", "7",
                          "--rate",     "2.5",       "--big",
                          "99999999999999999999"};
    su::Args args(12, const_cast<char**>(argv));
    EXPECT_EQ(args.getInt("seeds", 16), 16);
    EXPECT_DOUBLE_EQ(args.getDouble("lr", 0.1), 0.1);
    EXPECT_EQ(args.getCount("max-iters", 400), 400u);
    EXPECT_EQ(args.getCount("ok", 1), 7u);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), 2.5);
    EXPECT_EQ(args.getInt("big", 3), 3);
    EXPECT_EQ(args.getCount("absent", 4), 4u);
    EXPECT_TRUE(args.unrecognized().empty());
    EXPECT_EQ(args.malformed(),
              (std::vector<std::string>{"seeds", "lr", "max-iters", "big"}));
}

TEST(Json, FuzzRandomBytesNeverCrash)
{
    // Failure-injection: the parser must reject (not crash on) arbitrary
    // byte soup, including strings with nested brackets and escapes.
    su::Rng rng(4242);
    const char alphabet[] = "{}[]\",:\\ntf0123456789.eE+-u abc";
    for (int trial = 0; trial < 2000; ++trial) {
        std::string input;
        const std::size_t length = rng.uniformIndex(40);
        for (std::size_t i = 0; i < length; ++i)
            input.push_back(
                alphabet[rng.uniformIndex(sizeof(alphabet) - 1)]);
        std::string error;
        const auto result = su::Json::parse(input, &error);
        if (result.has_value()) {
            // Whatever parsed must re-serialize and re-parse.
            const auto round = su::Json::parse(result->dump());
            EXPECT_TRUE(round.has_value()) << input;
        }
    }
}

TEST(Json, DeepNestingIsBounded)
{
    std::string deep(2000, '[');
    deep += std::string(2000, ']');
    std::string error;
    EXPECT_FALSE(su::Json::parse(deep, &error).has_value());
    EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(FileIo, RoundTrip)
{
    const std::string path = "/tmp/smoothe_test_file.json";
    EXPECT_TRUE(su::writeFile(path, "{\"x\": 1}"));
    auto text = su::readFile(path);
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(*text, "{\"x\": 1}");
    EXPECT_FALSE(su::readFile("/nonexistent/definitely/missing").has_value());
}
