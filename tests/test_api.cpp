/**
 * @file
 * Tests for the top-level factory API and the CLI tool workflows
 * (load JSON e-graph -> extract by name -> dump selection).
 */

#include <gtest/gtest.h>

#include "api/factory.hpp"
#include "datasets/generators.hpp"
#include "egraph/serialize.hpp"
#include "util/json.hpp"

namespace api = smoothe::api;
namespace ds = smoothe::datasets;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;

TEST(Factory, ListsAllExtractors)
{
    const auto& names = api::extractorNames();
    EXPECT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "heuristic");
    EXPECT_EQ(names.back(), "smoothe");
}

TEST(Factory, UnknownNameReturnsNull)
{
    EXPECT_EQ(api::makeExtractor("gurobi"), nullptr);
    EXPECT_EQ(api::makeExtractor(""), nullptr);
}

class FactoryExtractorTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(FactoryExtractorTest, ConstructsAndExtracts)
{
    auto extractor = api::makeExtractor(GetParam());
    ASSERT_NE(extractor, nullptr) << GetParam();

    const eg::EGraph g = ds::paperExampleEGraph();
    ex::ExtractOptions options;
    options.seed = 1;
    options.timeLimitSeconds = 5.0;
    const auto result = extractor->extract(g, options);
    ASSERT_TRUE(result.ok()) << GetParam();
    EXPECT_TRUE(ex::validate(g, result.selection).ok()) << GetParam();
    EXPECT_LE(result.cost, 32.0) << GetParam();
    EXPECT_GE(result.cost, 19.0 - 1e-6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllExtractors, FactoryExtractorTest,
                         ::testing::ValuesIn(api::extractorNames()));

TEST(CliWorkflow, JsonInJsonOut)
{
    // The smoothe_extract tool's logic: file -> graph -> extract -> dump.
    const eg::EGraph original = ds::paperExampleEGraph();
    const std::string path = "/tmp/smoothe_api_test_egraph.json";
    ASSERT_TRUE(eg::saveToFile(original, path));

    std::string error;
    auto loaded = eg::loadFromFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;

    auto extractor = api::makeExtractor("ilp-strong");
    const auto result = extractor->extract(*loaded, {});
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.cost, 19.0);

    // Dump the selection like the CLI does and re-parse it.
    smoothe::util::Json choices = smoothe::util::Json::makeObject();
    for (eg::ClassId cls = 0; cls < loaded->numClasses(); ++cls) {
        if (result.selection.chosen(cls)) {
            choices.set(std::to_string(cls),
                        static_cast<double>(result.selection.choice[cls]));
        }
    }
    const std::string dumped = choices.dump();
    auto parsed = smoothe::util::Json::parse(dumped);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asObject().size(), 6u); // 6 needed classes
}
