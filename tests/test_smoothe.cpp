/**
 * @file
 * SmoothE extractor tests: optimality on the paper example, validity on
 * every dataset family, all three assumptions, NOTEARS behaviour on
 * cyclic graphs, seed batching, OOM emulation, loss curves, profiling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "datasets/generators.hpp"
#include "datasets/registry.hpp"
#include "extraction/solution.hpp"
#include "ilp/ilp_extractor.hpp"
#include "extraction/validate.hpp"
#include "obs/metrics.hpp"
#include "smoothe/smoothe.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace core = smoothe::core;
namespace ds = smoothe::datasets;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;
namespace simd = smoothe::tensor::simd;

namespace {

core::SmoothEConfig
fastConfig()
{
    core::SmoothEConfig config;
    config.numSeeds = 8;
    config.maxIterations = 120;
    config.patience = 40;
    config.learningRate = 0.15f;
    return config;
}

/** Full certification: structure, status, and the reported-cost check. */
void
expectCertified(const eg::EGraph& g, const ex::ExtractionResult& result)
{
    const auto verdict = ex::validateResult(g, result);
    EXPECT_TRUE(verdict.ok()) << verdict.message;
}

/** How much each stop-reason counter moved while `run` ran. */
template <typename Fn>
std::vector<std::uint64_t>
stopCounterDeltas(Fn&& run)
{
    const char* names[] = {"smoothe.stop.patience", "smoothe.stop.deadline",
                           "smoothe.stop.max_iterations"};
    std::vector<std::uint64_t> before;
    for (const char* name : names)
        before.push_back(smoothe::obs::counter(name).get());
    run();
    std::vector<std::uint64_t> deltas;
    for (std::size_t i = 0; i < before.size(); ++i)
        deltas.push_back(smoothe::obs::counter(names[i]).get() - before[i]);
    return deltas;
}

} // namespace

TEST(SmoothE, SolvesPaperExampleOptimally)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEExtractor extractor(fastConfig());
    ex::ExtractOptions options;
    options.seed = 1;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok()) << result.note;
    expectCertified(g, result);
    // Beats the bottom-up heuristic (27) and should find the optimum 19.
    EXPECT_LE(result.cost, 19.0 + 1e-6);
}

class SmoothEAssumptionTest
    : public ::testing::TestWithParam<core::Assumption>
{};

TEST_P(SmoothEAssumptionTest, ValidOnPaperExample)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.assumption = GetParam();
    core::SmoothEExtractor extractor(config);
    ex::ExtractOptions options;
    options.seed = 2;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    expectCertified(g, result);
    EXPECT_LE(result.cost, 27.0); // at least as good as the heuristic
}

INSTANTIATE_TEST_SUITE_P(Assumptions, SmoothEAssumptionTest,
                         ::testing::Values(core::Assumption::Independent,
                                           core::Assumption::Correlated,
                                           core::Assumption::Hybrid));

class SmoothEFamilyTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(SmoothEFamilyTest, ProducesValidSolutions)
{
    const auto graphs = ds::loadFamily(GetParam(), 0.08, 21);
    const eg::EGraph& g = graphs.front().graph;
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 60;
    core::SmoothEExtractor extractor(config);
    ex::ExtractOptions options;
    options.seed = 3;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok()) << GetParam() << ": " << result.note;
    EXPECT_TRUE(ex::validate(g, result.selection).ok()) << GetParam();
    // result.cost comes from the float32 linear model; dagCost sums the
    // original doubles.
    const double reference = ex::dagCost(g, result.selection);
    EXPECT_NEAR(result.cost, reference, 1e-4 * (1.0 + std::fabs(reference)));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SmoothEFamilyTest,
                         ::testing::Values("diospyros", "flexc", "impress",
                                           "rover", "tensat", "set",
                                           "maxsat"));

TEST(SmoothE, HandlesCyclicGraphViaNotears)
{
    // Free cycle vs paid escape: NOTEARS must steer away from the cycle.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 0.0);
    g.addNode(a, "fab", {b}, 0.0);
    g.addNode(a, "leafA", {}, 9.0);
    g.addNode(b, "gba", {a}, 0.0);
    g.addNode(b, "leafB", {}, 4.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    core::SmoothEConfig config = fastConfig();
    config.lambda = 10.0f;
    core::SmoothEExtractor extractor(config);
    ex::ExtractOptions options;
    options.seed = 5;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ex::validate(g, result.selection).ok());
    EXPECT_LE(result.cost, 9.0); // optimal is 4 (fab + leafB)
    EXPECT_EQ(extractor.diagnostics().sccCount, 1u);
    EXPECT_EQ(extractor.diagnostics().largestScc, 2u);
}

TEST(SmoothE, SamplerRepairOffStillWorksWithPenalty)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.repairSampling = false; // pure paper behaviour
    core::SmoothEExtractor extractor(config);
    ex::ExtractOptions options;
    options.seed = 6;
    const auto result = extractor.extract(g, options);
    // Acyclic graph: the plain arg-max sampler is always valid.
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ex::validate(g, result.selection).ok());
}

TEST(SmoothE, MoreSeedsNeverHurtMuch)
{
    // Figure 7's qualitative claim: larger seed batches find better or
    // equal solutions (statistically). Compare extremes on one graph.
    ds::FamilyParams params = ds::roverParams();
    params.numClasses = 80;
    const eg::EGraph g = ds::generateStructured(params, 31);

    auto run = [&](std::size_t seeds) {
        core::SmoothEConfig config = fastConfig();
        config.numSeeds = seeds;
        config.maxIterations = 80;
        core::SmoothEExtractor extractor(config);
        ex::ExtractOptions options;
        options.seed = 7;
        return extractor.extract(g, options);
    };
    const auto one = run(1);
    const auto many = run(32);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(many.ok());
    EXPECT_LE(many.cost, one.cost * 1.10 + 1e-9);
}

TEST(SmoothE, MemoryBudgetTriggersOom)
{
    ds::FamilyParams params = ds::tensatParams();
    params.numClasses = 200;
    const eg::EGraph g = ds::generateStructured(params, 11);
    core::SmoothEConfig config = fastConfig();
    config.memoryBudgetBytes = 10 * 1024; // absurdly small
    core::SmoothEExtractor extractor(config);
    const auto result = extractor.extract(g, {});
    EXPECT_EQ(result.status, ex::SolveStatus::Failed);
    EXPECT_TRUE(extractor.diagnostics().outOfMemory);
    EXPECT_NE(result.note.find("OOM"), std::string::npos);
}

TEST(SmoothE, PeakMemoryScalesWithSeeds)
{
    ds::FamilyParams params = ds::flexcParams();
    params.numClasses = 60;
    const eg::EGraph g = ds::generateStructured(params, 13);
    auto peak = [&](std::size_t seeds) {
        core::SmoothEConfig config = fastConfig();
        config.numSeeds = seeds;
        config.maxIterations = 3;
        core::SmoothEExtractor extractor(config);
        extractor.extract(g, {});
        return extractor.diagnostics().peakMemoryBytes;
    };
    const auto small = peak(2);
    const auto large = peak(16);
    EXPECT_GT(large, small * 4);
}

TEST(SmoothE, RecordsLossCurves)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 30;
    config.patience = 1000;
    core::SmoothEExtractor extractor(config);
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    const auto& curve = extractor.diagnostics().convergence;
    ASSERT_EQ(curve.size(), 30u);
    // Figure 9's claim: by the end, relaxed and sampled losses are close.
    const auto& last = curve.back();
    EXPECT_LT(std::fabs(last.softCost - last.iterSampledCost),
              0.5 * last.iterSampledCost + 5.0);
}

TEST(Convergence, RecorderWrapsRing)
{
    constexpr std::size_t capacity = core::ConvergenceRecorder::kCapacity;
    constexpr std::size_t total = capacity + 6;
    core::ConvergenceRecorder recorder;
    for (std::size_t iter = 0; iter < total; ++iter) {
        core::ConvergencePoint point;
        point.iteration = iter;
        point.loss = static_cast<double>(iter);
        recorder.record(point);
    }
    EXPECT_EQ(recorder.size(), capacity);
    EXPECT_EQ(recorder.dropped(), 6u);
    const auto points = recorder.ordered();
    ASSERT_EQ(points.size(), capacity);
    // Ring keeps the newest points, returned oldest-first.
    EXPECT_EQ(points.front().iteration, 6u);
    EXPECT_EQ(points.back().iteration, total - 1);
    for (std::size_t i = 1; i < points.size(); ++i)
        EXPECT_EQ(points[i].iteration, points[i - 1].iteration + 1);
}

TEST(Convergence, ExtractionFillsDiagnostics)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 30;
    config.patience = 1000;
    core::SmoothEExtractor extractor(config);
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    const auto& curve = extractor.diagnostics().convergence;
    ASSERT_EQ(curve.size(), 30u);
    EXPECT_EQ(extractor.diagnostics().convergenceDropped, 0u);
    for (std::size_t i = 0; i < curve.size(); ++i) {
        EXPECT_EQ(curve[i].iteration, i);
        EXPECT_TRUE(std::isfinite(curve[i].loss));
        EXPECT_TRUE(std::isfinite(curve[i].softCost));
        EXPECT_GE(curve[i].gradNorm, 0.0);
        // The incumbent is the best over all iterations so far.
        EXPECT_GE(curve[i].iterSampledCost, curve[i].sampledCost);
        if (i > 0) {
            EXPECT_GE(curve[i].wallSeconds, curve[i - 1].wallSeconds);
        }
    }
    // Sampling happens every iteration here, so the best sampled cost
    // is valid and matches the final extraction cost direction-wise.
    EXPECT_GT(curve.back().sampledCost, 0.0);
}

TEST(SmoothE, AnytimeTraceMonotone)
{
    ds::FamilyParams params = ds::roverParams();
    params.numClasses = 60;
    const eg::EGraph g = ds::generateStructured(params, 17);
    core::SmoothEExtractor extractor(fastConfig());
    ex::ExtractOptions options;
    options.seed = 9;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result.trace.empty());
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
        EXPECT_LE(result.trace[i].cost, result.trace[i - 1].cost);
        EXPECT_GE(result.trace[i].seconds, result.trace[i - 1].seconds);
    }
    EXPECT_DOUBLE_EQ(result.trace.back().cost, result.cost);
}

TEST(SmoothE, ProfilerCoversRuntime)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEExtractor extractor(fastConfig());
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    const auto& profile = extractor.diagnostics().profile;
    EXPECT_GT(profile.lossSeconds, 0.0);
    EXPECT_GT(profile.gradientSeconds, 0.0);
    EXPECT_GT(profile.samplingSeconds, 0.0);
    // The three phases dominate the total wall clock.
    EXPECT_GT(profile.total(), 0.5 * result.seconds);
}

TEST(SmoothE, Fig6CpuBaselineMatchesAvx2Threaded)
{
    // bench_fig6_ablation's CPU baseline (SIMD level scalar, 1 thread,
    // dense whole-graph NOTEARS) against the same algorithm on the AVX2
    // kernels and 4 threads.
    const auto graphs = ds::loadFamily("rover", 0.05, 11);
    const eg::EGraph& g = graphs.front().graph;
    const simd::Level saved = simd::activeLevel();
    const std::size_t savedThreads =
        smoothe::util::ThreadPool::global().size();
    auto run = [&](simd::Level level, std::size_t threads) {
        simd::setLevel(level);
        core::SmoothEConfig config = fastConfig();
        config.maxIterations = 30;
        config.sccDecomposition = false;
        config.batchedMatexp = false;
        smoothe::util::ThreadPool::setGlobalThreads(threads);
        core::SmoothEExtractor extractor(config);
        ex::ExtractOptions options;
        options.seed = 10;
        options.timeLimitSeconds = 1e9;
        const auto result = extractor.extract(g, options);
        // The graph is cyclic, so the dense penalty actually runs.
        EXPECT_GT(extractor.diagnostics().largestScc, 1u);
        return result;
    };
    const auto baseline = run(simd::Level::Scalar, 1);
    const auto fast = run(simd::Level::Avx2, 4);
    simd::setLevel(saved);
    smoothe::util::ThreadPool::setGlobalThreads(savedThreads);
    EXPECT_EQ(simd::activeLevel(), saved);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_NEAR(baseline.cost, fast.cost, 1.0);
}

TEST(SmoothE, PatienceStopsEarly)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 5000;
    config.patience = 5;
    core::SmoothEExtractor extractor(config);
    ex::ExtractionResult result;
    const auto deltas =
        stopCounterDeltas([&] { result = extractor.extract(g, {}); });
    ASSERT_TRUE(result.ok());
    EXPECT_LT(extractor.diagnostics().iterations, 5000u);
    EXPECT_EQ(deltas, (std::vector<std::uint64_t>{1, 0, 0}));
}

TEST(SmoothE, IterationCapCountsItsStop)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 3;
    config.patience = 100;
    core::SmoothEExtractor extractor(config);
    const auto deltas = stopCounterDeltas([&] { extractor.extract(g, {}); });
    EXPECT_EQ(extractor.diagnostics().iterations, 3u);
    EXPECT_EQ(deltas, (std::vector<std::uint64_t>{0, 0, 1}));
}

TEST(SmoothE, TimeLimitRespected)
{
    ds::FamilyParams params = ds::tensatParams();
    params.numClasses = 300;
    const eg::EGraph g = ds::generateStructured(params, 19);
    core::SmoothEConfig config = fastConfig();
    config.maxIterations = 100000;
    config.patience = 100000;
    core::SmoothEExtractor extractor(config);
    ex::ExtractOptions options;
    options.timeLimitSeconds = 1.0;
    const auto result = extractor.extract(g, options);
    EXPECT_LT(result.seconds, 10.0);
}

TEST(SmoothE, TwoCycleSatisfiesAcyclicity)
{
    // a -> b -> a is a zero-cost cycle; the fixed NOTEARS coefficient
    // must still steer the extraction to a valid leaf (cost <= 9).
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 0.0);
    g.addNode(a, "fab", {b}, 0.0);
    g.addNode(a, "leafA", {}, 9.0);
    g.addNode(b, "gba", {a}, 0.0);
    g.addNode(b, "leafB", {}, 4.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    core::SmoothEExtractor extractor(fastConfig());
    ex::ExtractOptions options;
    options.seed = 16;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ex::validate(g, result.selection).ok());
    EXPECT_LE(result.cost, 9.0);
    // The trajectory records the NOTEARS penalty the cycle incurs.
    const auto& curve = extractor.diagnostics().convergence;
    ASSERT_FALSE(curve.empty());
    EXPECT_GT(curve.front().penalty, 0.0);
}

TEST(SmoothE, CompiledReplayIsThreadCountInvariant)
{
    // Same seed, same graph: the compiled Program replay walks the exact
    // same optimization trajectory at 1 and at 4 worker threads, so
    // every sampled selection — and hence the final cost and choices —
    // is identical. (Replay against a Tape rebuild is pinned bitwise by
    // ProgramParity in test_program.)
    const auto graphs = ds::loadFamily("rover", 0.05, 11);
    const eg::EGraph& g = graphs.front().graph;
    const std::size_t savedThreads =
        smoothe::util::ThreadPool::global().size();
    auto run = [&](std::size_t threads) {
        core::SmoothEConfig config = fastConfig();
        config.maxIterations = 30;
        smoothe::util::ThreadPool::setGlobalThreads(threads);
        core::SmoothEExtractor extractor(config);
        ex::ExtractOptions options;
        options.seed = 5;
        options.timeLimitSeconds = 1e9;
        auto result = extractor.extract(g, options);
        EXPECT_GT(extractor.diagnostics().programBuffers, 0u);
        EXPECT_GT(extractor.diagnostics().bufferReuseRatio, 1.0);
        EXPECT_GT(extractor.diagnostics().tapeNodes, 0u);
        return result;
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    smoothe::util::ThreadPool::setGlobalThreads(savedThreads);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.cost, parallel.cost);
    EXPECT_EQ(serial.selection.choice, parallel.selection.choice);
}

TEST(Probabilities, PaperExampleIndependent)
{
    // Hand-computed phi on the Figure 2/3 graph with uniform theta:
    // every multi-node class splits cp 50/50; classes are
    // alpha(0) cos(1) sec(2) tan(3) tan2(4) one(5) sec2(6) root(7) and
    // nodes alpha(0) cos(1) sec(2) recip(3) tan(4) square-tan(5) one(6)
    // square-sec(7) add-inner(8) add-root(9).
    const eg::EGraph g = ds::paperExampleEGraph();
    smoothe::ad::Tensor theta(1, g.numNodes()); // all zeros
    const auto probs = core::computeProbabilities(
        g, theta, core::Assumption::Independent);

    // cp: singleton classes 1.0, {sec, recip} and {square, add} 0.5 each.
    EXPECT_NEAR(probs.cp.at(0, 0), 1.0, 1e-5);
    EXPECT_NEAR(probs.cp.at(0, 2), 0.5, 1e-5);
    EXPECT_NEAR(probs.cp.at(0, 3), 0.5, 1e-5);
    EXPECT_NEAR(probs.cp.at(0, 7), 0.5, 1e-5);
    EXPECT_NEAR(probs.cp.at(0, 8), 0.5, 1e-5);

    // q per class (independent combination, root pinned to 1).
    EXPECT_NEAR(probs.q.at(0, 7), 1.0, 1e-5);  // root
    EXPECT_NEAR(probs.q.at(0, 6), 1.0, 1e-5);  // sec2
    EXPECT_NEAR(probs.q.at(0, 3), 1.0, 1e-5);  // tan (root add selects it)
    EXPECT_NEAR(probs.q.at(0, 4), 0.5, 1e-5);  // tan2 via inner add
    EXPECT_NEAR(probs.q.at(0, 5), 0.5, 1e-5);  // one via inner add
    EXPECT_NEAR(probs.q.at(0, 2), 0.5, 1e-5);  // sec via square-sec
    EXPECT_NEAR(probs.q.at(0, 1), 0.25, 1e-5); // cos via recip
    EXPECT_NEAR(probs.q.at(0, 0), 1.0, 1e-5);  // alpha via tan (p=1)

    // p = cp * q (Eq. 5).
    EXPECT_NEAR(probs.p.at(0, 9), 1.0, 1e-5);
    EXPECT_NEAR(probs.p.at(0, 7), 0.5, 1e-5);
    EXPECT_NEAR(probs.p.at(0, 3), 0.25, 1e-5); // recip
    EXPECT_NEAR(probs.p.at(0, 1), 0.25, 1e-5); // cos
    EXPECT_NEAR(probs.p.at(0, 4), 1.0, 1e-5);  // tan
}

TEST(Probabilities, AssumptionsCombineParentsDifferently)
{
    // root -> {A, B}; A = {a1 -> S, a2}, B = {b1 -> S, b2}; S singleton.
    // With uniform theta, p(a1) = p(b1) = 0.5, so
    //   independent: q(S) = 1 - 0.5^2 = 0.75
    //   correlated : q(S) = max = 0.5
    //   hybrid     : 0.625
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    const auto s = g.addClass();
    g.addNode(root, "r", {a, b}, 1.0);
    g.addNode(a, "a1", {s}, 1.0);
    g.addNode(a, "a2", {}, 1.0);
    g.addNode(b, "b1", {s}, 1.0);
    g.addNode(b, "b2", {}, 1.0);
    g.addNode(s, "leaf", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    smoothe::ad::Tensor theta(1, g.numNodes());
    const auto indep = core::computeProbabilities(
        g, theta, core::Assumption::Independent);
    const auto corr = core::computeProbabilities(
        g, theta, core::Assumption::Correlated);
    const auto hybrid = core::computeProbabilities(
        g, theta, core::Assumption::Hybrid);
    EXPECT_NEAR(indep.q.at(0, s), 0.75, 1e-5);
    EXPECT_NEAR(corr.q.at(0, s), 0.5, 1e-5);
    EXPECT_NEAR(hybrid.q.at(0, s), 0.625, 1e-5);
}

class ProbabilityBoundsTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(ProbabilityBoundsTest, AllQuantitiesAreProbabilities)
{
    // Property: cp, q, p all stay in [0, 1] and cp sums to 1 per class,
    // on random graphs from every family (including cyclic ones).
    const auto graphs = ds::loadFamily(GetParam(), 0.05, 99);
    const eg::EGraph& g = graphs.front().graph;
    smoothe::util::Rng rng(7);
    smoothe::ad::Tensor theta(2, g.numNodes());
    for (std::size_t i = 0; i < theta.size(); ++i)
        theta.data()[i] = static_cast<float>(rng.normal(0.0, 2.0));

    for (const auto assumption :
         {core::Assumption::Independent, core::Assumption::Correlated,
          core::Assumption::Hybrid}) {
        const auto probs = core::computeProbabilities(g, theta, assumption);
        for (std::size_t i = 0; i < probs.cp.size(); ++i) {
            EXPECT_GE(probs.cp.data()[i], -1e-5);
            EXPECT_LE(probs.cp.data()[i], 1.0 + 1e-5);
        }
        for (std::size_t i = 0; i < probs.q.size(); ++i) {
            EXPECT_GE(probs.q.data()[i], -1e-5);
            EXPECT_LE(probs.q.data()[i], 1.0 + 1e-4);
        }
        for (std::size_t i = 0; i < probs.p.size(); ++i) {
            EXPECT_GE(probs.p.data()[i], -1e-5);
            EXPECT_LE(probs.p.data()[i], 1.0 + 1e-4);
        }
        // cp sums to 1 within each class (softmax invariant).
        for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
            for (std::size_t row = 0; row < 2; ++row) {
                double sum = 0.0;
                for (eg::NodeId nid : g.nodesInClass(cls))
                    sum += probs.cp.at(row, nid);
                EXPECT_NEAR(sum, 1.0, 1e-4);
            }
        }
        // Root q pinned to 1.
        EXPECT_NEAR(probs.q.at(0, g.root()), 1.0, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ProbabilityBoundsTest,
                         ::testing::Values("flexc", "rover", "tensat",
                                           "set", "maxsat"));

TEST(SmoothE, AssumptionNames)
{
    EXPECT_STREQ(core::toString(core::Assumption::Independent),
                 "independent");
    EXPECT_STREQ(core::toString(core::Assumption::Correlated),
                 "correlated");
    EXPECT_STREQ(core::toString(core::Assumption::Hybrid), "hybrid");
}
