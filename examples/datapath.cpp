/**
 * @file
 * Datapath synthesis scenario (the rover workload): minimize circuit area
 * for FIR-filter-style arithmetic kernels. Demonstrates per-instance
 * extraction across a family and the assumption hyper-parameter.
 *
 * Run: ./build/examples/datapath [--scale 0.2]
 */

#include <cstdio>

#include "datasets/generators.hpp"
#include "extraction/bottom_up.hpp"
#include "obs/cli.hpp"
#include "smoothe/smoothe.hpp"
#include "util/args.hpp"

int
main(int argc, char** argv)
{
    using namespace smoothe;
    const util::Args args(argc, argv);
    const double scale = args.getDouble("scale", 0.15);
    if (obs::reportUnknownFlags(args, "datapath") > 0)
        return 2;

    auto instances = datasets::roverNamedInstances(scale, 7);
    std::printf("%-8s %10s %12s %12s %10s\n", "kernel", "e-nodes",
                "heuristic", "SmoothE", "saving");

    for (const auto& named : instances) {
        extract::FasterBottomUpExtractor heuristic;
        const auto greedy = heuristic.extract(named.graph, {});

        // rover uses the independent assumption in the paper's Table 2.
        core::SmoothEConfig config;
        config.assumption = core::Assumption::Independent;
        config.numSeeds = 16;
        config.maxIterations = 150;
        core::SmoothEExtractor smoothe(config);
        extract::ExtractOptions options;
        options.seed = 11;
        const auto result = smoothe.extract(named.graph, options);

        const double saving =
            greedy.cost > 0.0 ? (greedy.cost - result.cost) / greedy.cost
                              : 0.0;
        std::printf("%-8s %10zu %12.1f %12.1f %9.1f%%\n",
                    named.name.c_str(), named.graph.numNodes(),
                    greedy.cost, result.cost, saving * 100.0);
    }
    return 0;
}
