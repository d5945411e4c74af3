/**
 * @file
 * Quickstart: build an e-graph by hand, extract with the heuristic, ILP,
 * and SmoothE, and compare the results.
 *
 * This walks the paper's running example (Figures 1-3): the expression
 * sec^2(a) + tan(a) after applying the rewrites
 *   sec a      -> 1 / cos a
 *   sec^2 a    -> 1 + tan^2 a
 * The bottom-up heuristic returns cost 27; the optimum (reusing the
 * shared tan a subexpression) costs 19. SmoothE finds the optimum in a
 * few dozen gradient steps.
 *
 * Run: ./build/examples/quickstart
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
    if (obs::reportUnknownFlags(args, "quickstart") > 0)
        return 2;

    // 1. Build (or load) an e-graph. Here: the paper's Figure 2 example.
    const eg::EGraph graph = datasets::paperExampleEGraph();
    std::printf("e-graph: %zu e-nodes in %zu e-classes\n",
                graph.numNodes(), graph.numClasses());

    // 2. egg-style bottom-up heuristic (fast, tree-cost, misses reuse).
    extract::BottomUpExtractor heuristic;
    const auto heuristicResult = heuristic.extract(graph, {});
    std::printf("heuristic : cost %6.1f  (%.3fs)\n", heuristicResult.cost,
                heuristicResult.seconds);

    // 3. Exact ILP (branch-and-bound on the paper's Eq. (1) formulation).
    ilp::IlpExtractor ilp(ilp::IlpPreset::Strong);
    const auto ilpResult = ilp.extract(graph, {});
    std::printf("ILP       : cost %6.1f  (%.3fs, %s)\n", ilpResult.cost,
                ilpResult.seconds, extract::toString(ilpResult.status));

    // 4. SmoothE: differentiable extraction with seed batching.
    core::SmoothEConfig config;
    config.numSeeds = 16;
    config.maxIterations = 200;
    core::SmoothEExtractor smoothe(config);
    extract::ExtractOptions options;
    options.seed = 1;
    const auto smootheResult = smoothe.extract(graph, options);
    std::printf("SmoothE   : cost %6.1f  (%.3fs, %zu iterations)\n",
                smootheResult.cost, smootheResult.seconds,
                smoothe.diagnostics().iterations);

    // 5. Inspect the SmoothE extraction.
    std::printf("\nSmoothE selection:\n");
    for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        if (!smootheResult.selection.chosen(cls))
            continue;
        const auto& node =
            graph.node(smootheResult.selection.choice[cls]);
        std::printf("  class %u -> %-7s (cost %.1f)\n", cls,
                    node.op.c_str(), node.cost);
    }
    return smootheResult.ok() ? 0 : 1;
}
