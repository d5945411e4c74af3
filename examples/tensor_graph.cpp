/**
 * @file
 * Tensor-graph superoptimization scenario (the tensat workload that
 * motivates the paper's introduction): extract the fastest equivalent
 * computation graph from a large, cyclic e-graph under per-operator GPU
 * execution-time costs, and compare the anytime behaviour of SmoothE
 * against an exact ILP under a time budget.
 *
 * Run: ./build/examples/tensor_graph [--scale 0.2] [--time-limit 5]
 */

#include <cstdio>

#include "datasets/generators.hpp"
#include "extraction/bottom_up.hpp"
#include "ilp/ilp_extractor.hpp"
#include "obs/cli.hpp"
#include "smoothe/smoothe.hpp"
#include "util/args.hpp"

int
main(int argc, char** argv)
{
    using namespace smoothe;
    const util::Args args(argc, argv);
    const double scale = args.getDouble("scale", 0.15);
    const double timeLimit = args.getDouble("time-limit", 5.0);
    if (obs::reportUnknownFlags(args, "tensor_graph") > 0)
        return 2;

    // A BERT-like tensor-graph e-graph (structure-matched synthetic; see
    // DESIGN.md substitutions).
    auto instances = datasets::tensatNamedInstances(scale, 99);
    const auto& bert = instances[2];
    const auto& stats = bert.graph.stats();
    std::printf("e-graph \"%s\": N=%zu, M=%zu, d(v)=%.2f, density=%.2e\n",
                bert.name.c_str(), stats.numNodes, stats.numClasses,
                stats.avgDegree, stats.density);

    extract::ExtractOptions options;
    options.seed = 3;
    options.timeLimitSeconds = timeLimit;

    extract::FasterBottomUpExtractor heuristic;
    const auto greedy = heuristic.extract(bert.graph, options);
    std::printf("%-12s cost %10.2f   time %6.2fs\n", "heuristic+",
                greedy.cost, greedy.seconds);

    ilp::IlpExtractor ilp(ilp::IlpPreset::Strong);
    const auto exact = ilp.extract(bert.graph, options);
    std::printf("%-12s cost %10.2f   time %6.2fs (%s)\n", "ILP", exact.cost,
                exact.seconds, extract::toString(exact.status));

    core::SmoothEConfig config;
    config.numSeeds = 16;
    config.maxIterations = 300;
    core::SmoothEExtractor smoothe(config);
    const auto result = smoothe.extractWithCost(
        bert.graph, cost::LinearCost(bert.graph), options);
    std::printf("%-12s cost %10.2f   time %6.2fs (%zu iters)\n", "SmoothE",
                result.cost, result.seconds,
                smoothe.diagnostics().iterations);

    // Anytime curve: how fast each method reaches its final quality.
    std::printf("\nSmoothE anytime trace (time s -> cost):\n");
    for (const auto& point : result.trace)
        std::printf("  %6.2f  %10.2f\n", point.seconds, point.cost);
    return result.ok() ? 0 : 1;
}
