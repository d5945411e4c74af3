/**
 * @file
 * Dataset generator tests: structural statistics vs the targets of
 * Table 1, feasibility, determinism, NP-hard reductions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/generators.hpp"
#include "datasets/eqsat_grown.hpp"
#include "datasets/nphard.hpp"
#include "datasets/registry.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/random_sample.hpp"

namespace ds = smoothe::datasets;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;

class FamilyStatsTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(FamilyStatsTest, MatchesTargetStructure)
{
    const ds::FamilyParams params = ds::familyParams(GetParam());
    const eg::EGraph g = ds::generateStructured(params, 12345);
    const auto& stats = g.stats();

    // N/M ratio within 35% of the family target.
    const double ratio =
        static_cast<double>(stats.numNodes) / stats.numClasses;
    EXPECT_NEAR(ratio, params.nodesPerClass,
                0.35 * params.nodesPerClass + 0.3)
        << GetParam();

    // Average degree within 30% of the target d(v).
    EXPECT_NEAR(stats.avgDegree, params.avgArity, 0.3 * params.avgArity)
        << GetParam();
}

TEST_P(FamilyStatsTest, FeasibleAndFullyReachable)
{
    ds::FamilyParams params = ds::familyParams(GetParam());
    params.numClasses = std::min<std::size_t>(params.numClasses, 300);
    const eg::EGraph g = ds::generateStructured(params, 777);
    EXPECT_EQ(g.reachableClasses().size(), g.numClasses()) << GetParam();

    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok()) << GetParam();
    EXPECT_TRUE(ex::validate(g, result.selection).ok()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyStatsTest,
                         ::testing::Values("diospyros", "flexc", "impress",
                                           "rover", "tensat"));

TEST(Generators, Deterministic)
{
    const ds::FamilyParams params = ds::flexcParams();
    const eg::EGraph a = ds::generateStructured(params, 5);
    const eg::EGraph b = ds::generateStructured(params, 5);
    EXPECT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.numClasses(), b.numClasses());
    for (eg::NodeId nid = 0; nid < a.numNodes(); ++nid) {
        EXPECT_EQ(a.node(nid).op, b.node(nid).op);
        EXPECT_TRUE(std::ranges::equal(a.node(nid).children,
                                       b.node(nid).children));
        EXPECT_DOUBLE_EQ(a.node(nid).cost, b.node(nid).cost);
    }
}

TEST(Generators, DifferentSeedsDiffer)
{
    const ds::FamilyParams params = ds::flexcParams();
    const eg::EGraph a = ds::generateStructured(params, 5);
    const eg::EGraph b = ds::generateStructured(params, 6);
    EXPECT_NE(a.numNodes(), b.numNodes());
}

TEST(Generators, FamilyProducesRequestedCount)
{
    const auto graphs = ds::generateFamily(ds::roverParams(), 0.2, 9);
    EXPECT_EQ(graphs.size(), ds::roverParams().numGraphs);
    for (const auto& named : graphs) {
        EXPECT_EQ(named.family, "rover");
        EXPECT_TRUE(named.graph.finalized());
    }
}

TEST(Generators, ScaleControlsSize)
{
    const auto small = ds::generateFamily(ds::flexcParams(), 0.1, 4);
    const auto large = ds::generateFamily(ds::flexcParams(), 0.4, 4);
    EXPECT_LT(small.front().graph.numClasses(),
              large.front().graph.numClasses());
}

TEST(Generators, NamedInstancesHaveExpectedNames)
{
    const auto tensat = ds::tensatNamedInstances(0.1, 3);
    ASSERT_EQ(tensat.size(), 5u);
    EXPECT_EQ(tensat[0].name, "NASNet-A");
    EXPECT_EQ(tensat[4].name, "ResNet-50");

    const auto rover = ds::roverNamedInstances(0.1, 3);
    ASSERT_EQ(rover.size(), 9u);
    EXPECT_EQ(rover[0].name, "fir_5");
    EXPECT_EQ(rover[8].name, "mcm_9");
}

TEST(Generators, PaperExampleCostsMatchFigure2)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    EXPECT_EQ(g.numClasses(), 8u);
    EXPECT_EQ(g.numNodes(), 10u);
    double total = 0.0;
    for (eg::NodeId nid = 0; nid < g.numNodes(); ++nid)
        total += g.node(nid).cost;
    EXPECT_DOUBLE_EQ(total, 0 + 10 + 10 + 5 + 10 + 5 + 0 + 5 + 2 + 2);
}

TEST(SetCover, InstanceCoversEveryElement)
{
    smoothe::util::Rng rng(1);
    const auto instance = ds::randomSetCover(50, 10, 3.0, rng);
    std::vector<bool> covered(50, false);
    for (const auto& set : instance.sets) {
        for (auto element : set)
            covered[element] = true;
    }
    for (bool c : covered)
        EXPECT_TRUE(c);
}

TEST(SetCover, ReductionStructure)
{
    smoothe::util::Rng rng(2);
    const auto instance = ds::randomSetCover(30, 8, 3.0, rng);
    const eg::EGraph g = ds::setCoverToEGraph(instance);
    // Root + 30 elements + at most 8 set classes.
    EXPECT_LE(g.numClasses(), 39u);
    EXPECT_GE(g.numClasses(), 32u);
    EXPECT_TRUE(ex::CyclicSccs::of(g).classes.empty());

    // Any greedy extraction is a cover: every element class resolves.
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
}

TEST(SetCover, HeuristicOverpaysIlpOptimal)
{
    // The adversarial point of the dataset (Table 4): tree-cost heuristics
    // cannot see set reuse across elements.
    smoothe::util::Rng rng(3);
    const auto instance = ds::randomSetCover(40, 10, 4.0, rng);
    const eg::EGraph g = ds::setCoverToEGraph(instance);
    ex::BottomUpExtractor heuristic;
    const auto heuristicResult = heuristic.extract(g, {});
    const double optimal = ds::bruteForceSetCover(instance);
    ASSERT_TRUE(heuristicResult.ok());
    EXPECT_GE(heuristicResult.cost, optimal - 1e-9);
}

TEST(MaxSat, ReductionBasics)
{
    smoothe::util::Rng rng(4);
    const auto instance = ds::randomMaxSat(10, 25, 3, rng);
    EXPECT_EQ(instance.clauses.size(), 25u);
    for (const auto& clause : instance.clauses) {
        EXPECT_EQ(clause.size(), 3u);
        for (int literal : clause) {
            EXPECT_NE(literal, 0);
            EXPECT_LE(std::abs(literal), 10);
        }
    }
    const eg::EGraph g = ds::maxSatToEGraph(instance);
    // Root + 20 literal classes + 25 clause classes.
    EXPECT_EQ(g.numClasses(), 46u);
    EXPECT_TRUE(ex::CyclicSccs::of(g).classes.empty());
}

TEST(MaxSat, SatisfiableInstanceCostsVariableCount)
{
    // A trivially satisfiable instance: x1 OR x2 repeated — optimum picks
    // one literal and reuses it everywhere.
    ds::MaxSatInstance instance;
    instance.numVariables = 2;
    instance.clauses = {{1, 2}, {1, 2}, {1, 2}};
    instance.violationPenalty = 10.0;
    // One shared literal (x1 or x2) satisfies all three clauses.
    EXPECT_DOUBLE_EQ(ds::bruteForceMaxSatCost(instance), 1.0);
}

TEST(EqsatGrown, RandomTermsParseableShape)
{
    smoothe::util::Rng rng(31);
    for (int i = 0; i < 10; ++i) {
        const auto term =
            ds::randomTerm(ds::TermFlavor::Arithmetic, 4, 3, rng);
        ASSERT_NE(term, nullptr);
        EXPECT_FALSE(term->toString().empty());
    }
}

TEST(EqsatGrown, GrowsValidExtractableEGraph)
{
    smoothe::util::Rng rng(32);
    const eg::EGraph g =
        ds::growEGraph(ds::TermFlavor::Arithmetic, 4, 2000, rng);
    EXPECT_GT(g.numNodes(), 3u);
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ex::validate(g, result.selection).ok());
}

TEST(EqsatGrown, CaviarRootsAreOperators)
{
    // A leaf root term would give a one-class graph with nothing to
    // choose. Saturation may still put a leaf in the root class
    // (x * zero = zero), so the root class must hold an operator; it
    // need not be free of leaves.
    for (const auto& named : ds::loadFamily("caviar", 0.1, 2025)) {
        const eg::EGraph& g = named.graph;
        EXPECT_GE(g.numClasses(), 2u) << named.name;
        bool rootHasOperator = false;
        for (const eg::NodeId nid : g.nodesInClass(g.root()))
            rootHasOperator |= !g.node(nid).children.empty();
        EXPECT_TRUE(rootHasOperator) << named.name;
        ex::FasterBottomUpExtractor extractor;
        const auto result = extractor.extract(g, {});
        ASSERT_TRUE(result.ok()) << named.name;
        EXPECT_TRUE(ex::validate(g, result.selection).ok()) << named.name;
    }
}

TEST(EqsatGrown, FirSaturationCreatesAlternatives)
{
    smoothe::util::Rng rng(33);
    const eg::EGraph g = ds::growFirEGraph(4, 3000, rng);
    // Saturation must have added equivalent forms: more nodes than the
    // initial term (4 muls + 3 adds + leaves ~ 12).
    EXPECT_GT(g.numNodes(), 15u);
    EXPECT_GT(g.stats().maxClassSize, 1u);

    // MAC fusion should make the extracted cost cheaper than the
    // original mul+add implementation (4*16 + 3*4 = 76).
    ex::FasterBottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result.cost, 76.0);
}

TEST(EqsatGrown, DatapathFlavorUsesDatapathOps)
{
    smoothe::util::Rng rng(34);
    const eg::EGraph g =
        ds::growEGraph(ds::TermFlavor::Datapath, 4, 2000, rng);
    bool sawMacOrMul = false;
    for (eg::NodeId nid = 0; nid < g.numNodes(); ++nid) {
        if (g.node(nid).op == "mac" || g.node(nid).op == "*")
            sawMacOrMul = true;
    }
    EXPECT_TRUE(sawMacOrMul);
}

TEST(Registry, AllFamiliesLoad)
{
    for (const auto& family : ds::allFamilies()) {
        const auto graphs = ds::loadFamily(family, 0.05, 42);
        EXPECT_FALSE(graphs.empty()) << family;
        for (const auto& named : graphs) {
            EXPECT_TRUE(named.graph.finalized()) << named.name;
            EXPECT_GT(named.graph.numNodes(), 0u) << named.name;
        }
    }
}

TEST(Registry, TableOneOrdering)
{
    // The paper's seven Table 1 families in paper order, then this
    // repo's eqsat-grown caviar extension.
    const auto& families = ds::allFamilies();
    ASSERT_EQ(families.size(), 8u);
    EXPECT_EQ(families.front(), "diospyros");
    EXPECT_EQ(families[6], "maxsat");
    EXPECT_EQ(families.back(), "caviar");
}
