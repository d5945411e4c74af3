/**
 * @file
 * The incremental-extraction protocol end to end: MutEGraph delta logs
 * replay onto pre-epoch snapshots, exportIncremental emits consistent
 * GraphDeltas whose forward maps preserve every node, isIdentity() tells
 * no-op epochs from merges and collapses, SmoothE's warm-started path is
 * thread-count deterministic and quality-equivalent to scratch, the
 * identity-delta fast path re-emits the cached result, and stale
 * IncrementalStates are rejected.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "datasets/eqsat_grown.hpp"
#include "egraph/serialize.hpp"
#include "eqsat/mut_egraph.hpp"
#include "eqsat/rules.hpp"
#include "obs/metrics.hpp"
#include "smoothe/smoothe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace smoothe;

double
opCost(const std::string& op, std::size_t)
{
    if (op.rfind("v", 0) == 0 || op == "zero" || op == "one" ||
        op == "two" || op == "three" || op == "five")
        return 0.0;
    if (op == "*" || op == "square")
        return 16.0;
    if (op == "+" || op == "-")
        return 4.0;
    if (op == "<<" || op == "neg")
        return 1.0;
    if (op == "min" || op == "max")
        return 2.0;
    return 8.0;
}

/** One saturation epoch under a growing node budget. */
void
runEpoch(eqsat::MutEGraph& mut, const std::vector<eqsat::Rewrite>& rules,
         std::size_t max_nodes)
{
    eqsat::RunLimits limits;
    limits.maxIterations = 2;
    limits.maxNodes = max_nodes;
    limits.maxMatchesPerRule = 300;
    mut.run(rules, limits);
}

/** A small caviar-flavored mutable e-graph with the delta log open. */
eqsat::MutEGraph
seedGraph(std::uint64_t seed, eqsat::Id* root_out)
{
    util::Rng rng(seed);
    const eqsat::TermPtr term = eqsat::app(
        "+", {datasets::randomTerm(datasets::TermFlavor::Caviar, 4, 3, rng),
              datasets::randomTerm(datasets::TermFlavor::Caviar, 3, 3, rng)});
    eqsat::MutEGraph mut;
    *root_out = mut.addTerm(*term);
    mut.enableDeltaLog(true);
    return mut;
}

TEST(IncrementalDelta, ReplayMatchesRebuildAcrossEpochs)
{
    eqsat::Id root = 0;
    eqsat::MutEGraph mut = seedGraph(7, &root);
    const auto& phases = eqsat::caviarRulePhases();
    eqsat::ExportState exportState;
    eg::EGraph prev;
    for (std::size_t epoch = 0; epoch < 4; ++epoch) {
        eqsat::MutEGraph snapshot = mut;
        runEpoch(mut, phases[epoch % phases.size()], 80 * (epoch + 1));
        ASSERT_EQ(mut.checkInvariants(), std::nullopt);

        const eqsat::Delta delta = mut.drainDelta();
        snapshot.applyDelta(delta);
        EXPECT_EQ(snapshot.structurallyEquals(mut), std::nullopt)
            << "epoch " << epoch;
        EXPECT_EQ(mut.structurallyEquals(snapshot), std::nullopt);

        // The exported delta relates this epoch to the last export: its
        // maps are consistent, and every prev node is forwarded to a node
        // with the same op whose children are the forwarded prev children.
        auto exported =
            mut.exportIncremental(mut.find(root), opCost, exportState);
        const eg::EGraph& next = exported.graph;
        const eg::GraphDelta& graphDelta = exported.delta;
        EXPECT_EQ(graphDelta.checkConsistent(next), std::nullopt)
            << "epoch " << epoch;
        EXPECT_EQ(graphDelta.prevNumNodes, prev.numNodes());
        EXPECT_EQ(graphDelta.prevNumClasses, prev.numClasses());
        for (eg::NodeId p = 0; p < graphDelta.prevNumNodes; ++p) {
            const eg::ENode& before = prev.node(p);
            const eg::ENode& after = next.node(graphDelta.nodeForward[p]);
            ASSERT_EQ(after.op, before.op) << "epoch " << epoch;
            ASSERT_EQ(after.children.size(), before.children.size());
            for (std::size_t k = 0; k < before.children.size(); ++k)
                EXPECT_EQ(after.children[k],
                          graphDelta.classForward[before.children[k]]);
        }
        prev = std::move(exported.graph);
    }
}

/** A mutable graph over (+ a b) exported once, as epoch 0. */
struct TwoLeafEpochs
{
    eqsat::MutEGraph mut;
    eqsat::Id root = 0;
    eqsat::Id a = 0;
    eqsat::Id b = 0;
    eqsat::ExportState state;
    eg::EGraph first;

    TwoLeafEpochs()
    {
        a = mut.add("a", {});
        b = mut.add("b", {});
        root = mut.add("+", {a, b});
        first = mut.exportIncremental(root, opCost, state).graph;
    }

    eqsat::ExportResult
    next()
    {
        return mut.exportIncremental(mut.find(root), opCost, state);
    }
};

TEST(IncrementalDelta, NoOpEpochIsIdentity)
{
    TwoLeafEpochs epochs;
    const auto exported = epochs.next();
    EXPECT_TRUE(exported.delta.isIdentity());
    EXPECT_EQ(eg::toJson(exported.graph), eg::toJson(epochs.first));
}

TEST(IncrementalDelta, MergeOnlyEpochIsNotIdentity)
{
    // Merging the two leaves adds no node and collapses none: the only
    // change is that two prev classes forward to one next class.
    TwoLeafEpochs epochs;
    epochs.mut.merge(epochs.a, epochs.b);
    epochs.mut.rebuild();
    const auto exported = epochs.next();
    ASSERT_EQ(exported.delta.checkConsistent(exported.graph), std::nullopt);
    EXPECT_EQ(exported.graph.numNodes(), epochs.first.numNodes());
    EXPECT_EQ(exported.graph.numClasses() + 1, epochs.first.numClasses());
    EXPECT_FALSE(exported.delta.isIdentity());
}

TEST(IncrementalDelta, CongruentCollapseOnlyIsNotIdentity)
{
    // A collapse always rides with a merge in a real epoch, so the delta
    // is built by hand: every class maps to itself and one extra prev
    // node collapsed into node 0.
    TwoLeafEpochs epochs;
    const eg::EGraph& next = epochs.first;
    eg::GraphDelta delta = eg::GraphDelta::identity(next);
    delta.prevNumNodes = next.numNodes() + 1;
    delta.nodeForward.push_back(0);
    delta.deriveReverseMaps(next.numNodes(), next.numClasses());
    ASSERT_EQ(delta.checkConsistent(next), std::nullopt);
    EXPECT_FALSE(delta.isIdentity());
}

/** Runs the full warm-started SmoothE epoch sequence at a given thread
 *  count and returns the per-epoch costs. */
std::vector<double>
smootheEpochCosts(std::size_t threads)
{
    eqsat::Id root = 0;
    eqsat::MutEGraph mut = seedGraph(17, &root);
    const auto& phases = eqsat::caviarRulePhases();
    core::SmoothEConfig config;
    config.numSeeds = 4;
    config.maxIterations = 60;
    config.patience = 10;
    const std::size_t savedThreads = util::ThreadPool::global().size();
    util::ThreadPool::setGlobalThreads(threads);
    core::SmoothEExtractor extractor(config);
    eqsat::ExportState exportState;
    extract::IncrementalState state;
    extract::ExtractOptions options;
    options.seed = 3;
    std::vector<double> costs;
    for (std::size_t epoch = 0; epoch < 3; ++epoch) {
        runEpoch(mut, phases[epoch % phases.size()], 60 * (epoch + 1));
        const auto exported =
            mut.exportIncremental(mut.find(root), opCost, exportState);
        const auto result = extractor.extractIncremental(
            exported.graph, exported.delta, state, options);
        EXPECT_TRUE(result.ok());
        costs.push_back(result.cost);
    }
    util::ThreadPool::setGlobalThreads(savedThreads);
    return costs;
}

TEST(IncrementalExtract, SmoothEWarmStartIsThreadCountDeterministic)
{
    const std::vector<double> one = smootheEpochCosts(1);
    const std::vector<double> four = smootheEpochCosts(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i], four[i]) << "epoch " << i; // bitwise, not approx
}

TEST(IncrementalExtract, SmoothEQualityTracksScratchOnGrownGraphs)
{
    eqsat::Id root = 0;
    eqsat::MutEGraph mut = seedGraph(19, &root);
    const auto& phases = eqsat::caviarRulePhases();
    core::SmoothEConfig config;
    config.numSeeds = 4;
    config.maxIterations = 120;
    config.patience = 20;
    core::SmoothEExtractor incremental(config);
    core::SmoothEExtractor scratch(config);
    eqsat::ExportState exportState;
    extract::IncrementalState state;
    extract::ExtractOptions options;
    options.seed = 5;
    double incBest = 0.0;
    double scratchBest = 0.0;
    for (std::size_t epoch = 0; epoch < 4; ++epoch) {
        runEpoch(mut, phases[epoch % phases.size()], 60 * (epoch + 1));
        const auto exported =
            mut.exportIncremental(mut.find(root), opCost, exportState);
        const auto inc = incremental.extractIncremental(
            exported.graph, exported.delta, state, options);
        const auto ref = scratch.extract(exported.graph, options);
        ASSERT_TRUE(inc.ok());
        ASSERT_TRUE(ref.ok());
        if (epoch == 0) {
            incBest = inc.cost;
            scratchBest = ref.cost;
        } else {
            incBest = std::min(incBest, inc.cost);
            scratchBest = std::min(scratchBest, ref.cost);
        }
    }
    // Anytime incumbents: the warm-started track must keep pace with
    // from-scratch re-extraction (1% tolerance, matching the CI gate).
    EXPECT_LE(incBest, scratchBest * 1.01);
}

TEST(IncrementalExtract, IdentityDeltaReemitsCachedResult)
{
    util::Rng rng(23);
    const eg::EGraph graph =
        datasets::growEGraph(datasets::TermFlavor::Caviar, 4, 150, rng);
    const eg::GraphDelta identity = eg::GraphDelta::identity(graph);
    core::SmoothEConfig config;
    config.numSeeds = 4;
    config.maxIterations = 60;
    config.patience = 10;
    core::SmoothEExtractor extractor(config);
    extract::IncrementalState state;
    extract::ExtractOptions options;
    options.seed = 9;
    const auto cold =
        extractor.extractIncremental(graph, identity, state, options);
    ASSERT_TRUE(cold.ok());
    const auto skipsBefore =
        obs::counter("smoothe.identity_skips").get();
    const auto warm =
        extractor.extractIncremental(graph, identity, state, options);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.cost, cold.cost); // cached result, bitwise
    EXPECT_EQ(warm.selection.choice, cold.selection.choice);
    EXPECT_EQ(obs::counter("smoothe.identity_skips").get(),
              skipsBefore + 1);
}

TEST(IncrementalExtract, StaleStateIsRejected)
{
    check::ScopedFailureMode mode(check::FailureMode::Throw);
    util::Rng rng(29);
    const eg::EGraph small =
        datasets::growEGraph(datasets::TermFlavor::Caviar, 3, 60, rng);
    const eg::EGraph big =
        datasets::growEGraph(datasets::TermFlavor::Arithmetic, 4, 150, rng);
    ASSERT_NE(small.numNodes(), big.numNodes());

    core::SmoothEConfig config;
    config.numSeeds = 2;
    config.maxIterations = 5;
    core::SmoothEExtractor smoothe(config);
    extract::ExtractOptions options;
    extract::IncrementalState state;
    smoothe.extractIncremental(small, eg::GraphDelta::identity(small), state,
                               options);

    // Same state pointed at a different e-graph lineage: the delta's
    // prev counts no longer describe what the state last saw. The
    // misuse is deliberate — it is what this test proves gets caught.
    EXPECT_THROW(smoothe.extractIncremental(
                     big, eg::GraphDelta::identity(big), state, options),
                 check::ContractViolation);

    // A different extractor instance must not adopt the state either.
    core::SmoothEExtractor other(config);
    EXPECT_THROW(other.extractIncremental(
                     small, eg::GraphDelta::identity(small), state,
                     options),
                 check::ContractViolation)
        << "owner check should fire for a foreign state";

    // reset() forgives both.
    state.reset();
    const auto after = other.extractIncremental(
        big, eg::GraphDelta::identity(big), state, options);
    EXPECT_TRUE(after.ok());
}

} // namespace
