/**
 * @file
 * LP simplex and branch-and-bound ILP extraction tests, including
 * agreement with brute force on small graphs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "datasets/generators.hpp"
#include "datasets/nphard.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/random_sample.hpp"
#include "ilp/ilp_extractor.hpp"
#include "extraction/validate.hpp"
#include "ilp/lp.hpp"
#include "obs/metrics.hpp"

namespace eg = smoothe::eg;
namespace ex = smoothe::extract;
namespace il = smoothe::ilp;
namespace ds = smoothe::datasets;

namespace {

/** Full certification: structure, status, and the reported-cost check. */
void
expectCertified(const eg::EGraph& g, const ex::ExtractionResult& result)
{
    const auto verdict = ex::validateResult(g, result);
    EXPECT_TRUE(verdict.ok()) << verdict.message;
}

} // namespace

TEST(Simplex, SolvesBasicLp)
{
    // min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  -> x=2? No:
    // optimum at (2, 2): obj = -6? x+y<=4, y<=2 -> best y=2, x=2: -6.
    il::LinearProgram lp;
    const auto x = lp.addVariable(-1.0, 3.0);
    const auto y = lp.addVariable(-2.0, 2.0);
    il::Constraint c;
    c.terms = {{x, 1.0}, {y, 1.0}};
    c.sense = il::Sense::LessEqual;
    c.rhs = 4.0;
    lp.addConstraint(std::move(c));

    const auto result = il::solveSimplex(lp);
    ASSERT_EQ(result.status, il::LpStatus::Optimal);
    EXPECT_NEAR(result.objective, -6.0, 1e-7);
    EXPECT_NEAR(result.values[x], 2.0, 1e-7);
    EXPECT_NEAR(result.values[y], 2.0, 1e-7);
}

TEST(Simplex, EqualityAndGreaterConstraints)
{
    // min x + y s.t. x + y >= 3, x - y = 1  ->  x=2, y=1.
    il::LinearProgram lp;
    const auto x = lp.addVariable(1.0);
    const auto y = lp.addVariable(1.0);
    il::Constraint ge;
    ge.terms = {{x, 1.0}, {y, 1.0}};
    ge.sense = il::Sense::GreaterEqual;
    ge.rhs = 3.0;
    lp.addConstraint(std::move(ge));
    il::Constraint eq;
    eq.terms = {{x, 1.0}, {y, -1.0}};
    eq.sense = il::Sense::Equal;
    eq.rhs = 1.0;
    lp.addConstraint(std::move(eq));

    const auto result = il::solveSimplex(lp);
    ASSERT_EQ(result.status, il::LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 3.0, 1e-7);
    EXPECT_NEAR(result.values[x], 2.0, 1e-7);
    EXPECT_NEAR(result.values[y], 1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible)
{
    il::LinearProgram lp;
    const auto x = lp.addVariable(1.0, 1.0);
    il::Constraint c;
    c.terms = {{x, 1.0}};
    c.sense = il::Sense::GreaterEqual;
    c.rhs = 5.0;
    lp.addConstraint(std::move(c));
    EXPECT_EQ(il::solveSimplex(lp).status, il::LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    il::LinearProgram lp;
    lp.addVariable(-1.0); // min -x, x >= 0, no upper bound
    EXPECT_EQ(il::solveSimplex(lp).status, il::LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // min x s.t. -x <= -2  (i.e. x >= 2).
    il::LinearProgram lp;
    const auto x = lp.addVariable(1.0);
    il::Constraint c;
    c.terms = {{x, -1.0}};
    c.sense = il::Sense::LessEqual;
    c.rhs = -2.0;
    lp.addConstraint(std::move(c));
    const auto result = il::solveSimplex(lp);
    ASSERT_EQ(result.status, il::LpStatus::Optimal);
    EXPECT_NEAR(result.values[x], 2.0, 1e-7);
}

TEST(Simplex, MatchesVertexEnumerationOnRandomLps)
{
    // Property: on random bounded 2-variable LPs, the simplex optimum
    // equals the best vertex of the feasible polygon (vertices =
    // pairwise constraint/bound intersections).
    smoothe::util::Rng rng(2024);
    int solved = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const double ub0 = rng.uniform(0.5, 4.0);
        const double ub1 = rng.uniform(0.5, 4.0);
        const double c0 = rng.uniform(-3.0, 3.0);
        const double c1 = rng.uniform(-3.0, 3.0);

        il::LinearProgram lp;
        lp.addVariable(c0, ub0);
        lp.addVariable(c1, ub1);
        struct Row
        {
            double a0, a1, rhs;
        };
        std::vector<Row> rows;
        const int numRows = 1 + static_cast<int>(rng.uniformIndex(3));
        for (int r = 0; r < numRows; ++r) {
            Row row{rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
                    rng.uniform(0.5, 4.0)};
            rows.push_back(row);
            il::Constraint constraint;
            constraint.terms = {{0, row.a0}, {1, row.a1}};
            constraint.sense = il::Sense::LessEqual;
            constraint.rhs = row.rhs;
            lp.addConstraint(std::move(constraint));
        }

        // Vertex enumeration: all intersections of the boundary lines
        // a0 x + a1 y = rhs, x in {0, ub0}, y in {0, ub1}.
        struct Line
        {
            double a0, a1, rhs;
        };
        std::vector<Line> lines;
        for (const Row& row : rows)
            lines.push_back({row.a0, row.a1, row.rhs});
        lines.push_back({1.0, 0.0, 0.0});
        lines.push_back({1.0, 0.0, ub0});
        lines.push_back({0.0, 1.0, 0.0});
        lines.push_back({0.0, 1.0, ub1});

        auto feasible = [&](double x, double y) {
            if (x < -1e-7 || y < -1e-7 || x > ub0 + 1e-7 || y > ub1 + 1e-7)
                return false;
            for (const Row& row : rows) {
                if (row.a0 * x + row.a1 * y > row.rhs + 1e-7)
                    return false;
            }
            return true;
        };

        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < lines.size(); ++i) {
            for (std::size_t j = i + 1; j < lines.size(); ++j) {
                const double det = lines[i].a0 * lines[j].a1 -
                                   lines[j].a0 * lines[i].a1;
                if (std::fabs(det) < 1e-9)
                    continue;
                const double x = (lines[i].rhs * lines[j].a1 -
                                  lines[j].rhs * lines[i].a1) /
                                 det;
                const double y = (lines[i].a0 * lines[j].rhs -
                                  lines[j].a0 * lines[i].rhs) /
                                 det;
                if (feasible(x, y))
                    best = std::min(best, c0 * x + c1 * y);
            }
        }

        const auto result = il::solveSimplex(lp);
        if (best == std::numeric_limits<double>::infinity()) {
            EXPECT_EQ(result.status, il::LpStatus::Infeasible)
                << "trial " << trial;
            continue;
        }
        ASSERT_EQ(result.status, il::LpStatus::Optimal) << "trial " << trial;
        EXPECT_NEAR(result.objective, best, 1e-6) << "trial " << trial;
        ++solved;
    }
    EXPECT_GE(solved, 20); // most random instances are feasible
}

TEST(ExtractionLp, RelaxationLowerBoundsOptimum)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    const il::LinearProgram lp = il::buildExtractionLp(g);
    const auto result = il::solveSimplex(lp);
    ASSERT_EQ(result.status, il::LpStatus::Optimal);
    EXPECT_LE(result.objective, 19.0 + 1e-6);
    EXPECT_GT(result.objective, 0.0);
}

TEST(Ilp, OptimalOnPaperGraph)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    for (const il::IlpPreset preset :
         {il::IlpPreset::Strong, il::IlpPreset::Medium,
          il::IlpPreset::Weak}) {
        il::IlpExtractor extractor(preset);
        const auto result = extractor.extract(g, {});
        ASSERT_EQ(result.status, ex::SolveStatus::Optimal)
            << il::presetName(preset);
        EXPECT_DOUBLE_EQ(result.cost, 19.0) << il::presetName(preset);
        expectCertified(g, result);
    }
}

TEST(Ilp, BeatsHeuristicExactlyOnSharedSubexpressions)
{
    // ILP finds 19 where the tree heuristic stops at 27 — the Figure 2
    // story.
    const eg::EGraph g = ds::paperExampleEGraph();
    il::IlpExtractor ilp(il::IlpPreset::Strong);
    const auto result = ilp.extract(g, {});
    EXPECT_DOUBLE_EQ(result.cost, 19.0);
}

TEST(Ilp, HandlesCyclesCorrectly)
{
    // Choosing the cycle would be free but invalid; ILP must pay for the
    // escape node.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 0.0);
    g.addNode(a, "fab", {b}, 0.0);
    g.addNode(a, "leafA", {}, 7.0);
    g.addNode(b, "gba", {a}, 0.0);
    g.addNode(b, "leafB", {}, 3.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    il::IlpExtractor extractor(il::IlpPreset::Strong);
    const auto result = extractor.extract(g, {});
    ASSERT_EQ(result.status, ex::SolveStatus::Optimal);
    // Optimal: a -> fab, b -> leafB: cost 3 (no cycle).
    EXPECT_DOUBLE_EQ(result.cost, 3.0);
    expectCertified(g, result);
}

TEST(Ilp, InfeasibleGraph)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addNode(root, "self", {root}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    il::IlpExtractor extractor(il::IlpPreset::Strong);
    const auto result = extractor.extract(g, {});
    EXPECT_EQ(result.status, ex::SolveStatus::Infeasible);
    expectCertified(g, result); // infeasible must not smuggle a solution
}

TEST(Ilp, MatchesBruteForceOnRandomSmallGraphs)
{
    // Exhaustive check: enumerate all selections on tiny random graphs
    // and compare with the BnB optimum.
    smoothe::util::Rng rng(123);
    for (int trial = 0; trial < 8; ++trial) {
        ds::FamilyParams params = ds::flexcParams();
        params.numClasses = 8;
        params.nodesPerClass = 2.0;
        params.cycleFraction = trial % 2 ? 0.1 : 0.0;
        const eg::EGraph g = ds::generateStructured(params, rng.next());

        // Brute force over per-class choices (product of class sizes).
        std::size_t combos = 1;
        bool tooBig = false;
        for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
            combos *= g.nodesInClass(cls).size();
            if (combos > 200000) {
                tooBig = true;
                break;
            }
        }
        if (tooBig)
            continue;

        double best = std::numeric_limits<double>::infinity();
        std::vector<std::size_t> pick(g.numClasses(), 0);
        while (true) {
            ex::Selection sel = ex::Selection::empty(g);
            for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls)
                sel.choice[cls] = g.nodesInClass(cls)[pick[cls]];
            // Restrict to needed classes to satisfy the validator.
            const auto needed = ex::neededClasses(g, sel);
            if (needed) {
                ex::Selection trimmed = ex::Selection::empty(g);
                for (eg::ClassId cls : *needed)
                    trimmed.choice[cls] = sel.choice[cls];
                if (ex::validate(g, trimmed).ok())
                    best = std::min(best, ex::dagCost(g, trimmed));
            }
            // Increment the mixed-radix counter.
            std::size_t idx = 0;
            while (idx < g.numClasses()) {
                if (++pick[idx] < g.nodesInClass(idx).size())
                    break;
                pick[idx] = 0;
                ++idx;
            }
            if (idx == g.numClasses())
                break;
        }

        il::IlpExtractor extractor(il::IlpPreset::Strong);
        const auto result = extractor.extract(g, {});
        ASSERT_EQ(result.status, ex::SolveStatus::Optimal);
        EXPECT_NEAR(result.cost, best, 1e-9) << "trial " << trial;
    }
}

TEST(Ilp, SetCoverReductionMatchesBruteForce)
{
    smoothe::util::Rng rng(7);
    const auto instance = ds::randomSetCover(20, 8, 3.0, rng);
    const eg::EGraph g = ds::setCoverToEGraph(instance);
    il::IlpExtractor extractor(il::IlpPreset::Strong);
    const auto result = extractor.extract(g, {});
    ASSERT_EQ(result.status, ex::SolveStatus::Optimal);
    EXPECT_NEAR(result.cost, ds::bruteForceSetCover(instance), 1e-9);
}

TEST(Ilp, MaxSatReductionMatchesBruteForce)
{
    smoothe::util::Rng rng(11);
    auto instance = ds::randomMaxSat(8, 20, 3, rng);
    const eg::EGraph g = ds::maxSatToEGraph(instance);
    il::IlpExtractor extractor(il::IlpPreset::Strong);
    const auto result = extractor.extract(g, {});
    ASSERT_EQ(result.status, ex::SolveStatus::Optimal);
    EXPECT_NEAR(result.cost, ds::bruteForceMaxSatCost(instance), 1e-9);
}

TEST(Ilp, TimeLimitYieldsBestEffort)
{
    ds::FamilyParams params = ds::roverParams();
    params.numClasses = 150;
    const eg::EGraph g = ds::generateStructured(params, 99);
    il::IlpExtractor extractor(il::IlpPreset::Strong);
    ex::ExtractOptions options;
    options.timeLimitSeconds = 0.2;
    const auto result = extractor.extract(g, options);
    // Either it solved in time (Optimal) or returned a warm incumbent.
    EXPECT_TRUE(result.status == ex::SolveStatus::Optimal ||
                result.status == ex::SolveStatus::Feasible);
    if (result.ok()) {
        EXPECT_TRUE(ex::validate(g, result.selection).ok());
    }
}

TEST(Ilp, PresetOrderingOnQuality)
{
    // Under a tight budget, Strong should never be worse than Weak.
    ds::FamilyParams params = ds::roverParams();
    params.numClasses = 100;
    const eg::EGraph g = ds::generateStructured(params, 4242);
    ex::ExtractOptions options;
    options.timeLimitSeconds = 0.5;
    il::IlpExtractor strong(il::IlpPreset::Strong);
    il::IlpExtractor weak(il::IlpPreset::Weak);
    const auto strongResult = strong.extract(g, options);
    const auto weakResult = weak.extract(g, options);
    if (strongResult.ok() && weakResult.ok()) {
        EXPECT_LE(strongResult.cost, weakResult.cost + 1e-9);
    }
}

TEST(Ilp, EngineCounterMatchesPath)
{
    const char* names[] = {"ilp.engine.lp_bnb", "ilp.engine.lp_bnb_fallback",
                           "ilp.engine.lp_too_large"};
    const auto deltasOf = [&](const eg::EGraph& g, il::IlpPreset preset) {
        std::vector<std::uint64_t> before;
        for (const char* name : names)
            before.push_back(smoothe::obs::counter(name).get());
        ex::ExtractOptions options;
        options.timeLimitSeconds = 0.5;
        il::IlpExtractor(preset).extract(g, options);
        std::vector<std::uint64_t> deltas;
        for (std::size_t i = 0; i < before.size(); ++i)
            deltas.push_back(smoothe::obs::counter(names[i]).get() -
                             before[i]);
        return deltas;
    };

    // The paper example's LP is far under the cap: LP B&B solves it.
    EXPECT_EQ(deltasOf(ds::paperExampleEGraph(), il::IlpPreset::Strong),
              (std::vector<std::uint64_t>{1, 0, 0}));

    // Over the Medium cap (550 variables / 650 constraints): the
    // combinatorial search runs without trying the LP.
    ds::FamilyParams params = ds::roverParams();
    params.numClasses = 150;
    const eg::EGraph big = ds::generateStructured(params, 99);
    const il::LinearProgram lp = il::buildExtractionLp(big);
    ASSERT_TRUE(lp.numVariables() > 550 || lp.numConstraints() > 650);
    EXPECT_EQ(deltasOf(big, il::IlpPreset::Medium),
              (std::vector<std::uint64_t>{0, 0, 1}));
}

TEST(Ilp, RootRelaxationIsLowerBound)
{
    const il::LpResult root =
        il::solveSimplex(il::buildExtractionLp(ds::paperExampleEGraph()));
    ASSERT_EQ(root.status, il::LpStatus::Optimal);
    EXPECT_LE(root.objective, 19.0 + 1e-6);
}

TEST(Ilp, RecordsAnytimeTrace)
{
    ds::FamilyParams params = ds::flexcParams();
    params.numClasses = 60;
    const eg::EGraph g = ds::generateStructured(params, 31);
    il::IlpExtractor extractor(il::IlpPreset::Strong);
    ex::ExtractOptions options;
    options.timeLimitSeconds = 2.0;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.trace.empty());
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_LE(result.trace[i].cost, result.trace[i - 1].cost + 1e-9);
}

TEST(Ilp, DefaultTraceStartsAtWarmIncumbent)
{
    // ILP-strong seeds its incumbent with heuristic+; a default run's
    // anytime trace must open with that point on both engines: the
    // LP-based search (small model) and the class-choice search (a model
    // past the LP size cap).
    ds::FamilyParams small = ds::flexcParams();
    small.numClasses = 60;
    ds::FamilyParams large = ds::roverParams();
    large.numClasses = 600;
    for (const eg::EGraph& g : {ds::generateStructured(small, 31),
                                ds::generateStructured(large, 5)}) {
        const auto warm = ex::FasterBottomUpExtractor().extract(g, {});
        ASSERT_TRUE(warm.ok());
        il::IlpExtractor extractor(il::IlpPreset::Strong);
        ex::ExtractOptions options;
        options.timeLimitSeconds = 2.0;
        const auto result = extractor.extract(g, options);
        ASSERT_TRUE(result.ok());
        ASSERT_FALSE(result.trace.empty());
        EXPECT_DOUBLE_EQ(result.trace.front().cost, warm.cost);
        EXPECT_DOUBLE_EQ(result.trace.back().cost, result.cost);
    }
}
