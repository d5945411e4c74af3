/**
 * @file
 * Regenerates Figure 7: seed-batching sweep on rover's box_3 e-graph.
 * For B in {1, 2, 4, ..., 256}: average extracted cost and variance over
 * repeated runs (orange curve) and wall-clock latency (blue curve).
 * Expected shape: cost and variance fall as B grows; latency grows far
 * slower than linearly while the "device" is underutilized.
 *
 * Run: ./build/bench/bench_fig7_seeds [--scale 0.1] [--max-seeds 256]
 */

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

int
main(int argc, char** argv)
{
    std::size_t maxSeeds = 0;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            maxSeeds = args.getCount(
                "max-seeds", args.getBool("quick", false) ? 64 : 256);
        });

    // box_3 at 3x the sweep scale: the seed-batching effect needs a graph
    // with enough local optima that single seeds get stuck (Figure 7 uses
    // a full-size instance).
    auto rover =
        datasets::roverNamedInstances(options.scale * 3.0, options.seed);
    const auto& box3 = rover[4]; // box_3
    std::printf("=== Figure 7: seed batching on %s (N=%zu, M=%zu) ===\n\n",
                box3.name.c_str(), box3.graph.numNodes(),
                box3.graph.numClasses());

    util::TablePrinter table({"B (seeds)", "avg cost", "max diff",
                              "latency (s)"});
    for (std::size_t seeds = 1; seeds <= maxSeeds; seeds *= 2) {
        double lo = 1e300;
        double hi = -1e300;
        double costSum = 0.0;
        double timeSum = 0.0;
        std::size_t ok = 0;
        for (std::size_t run = 0; run < options.runs; ++run) {
            core::SmoothEConfig config;
            config.numSeeds = seeds;
            config.maxIterations = 150;
            core::SmoothEExtractor smoothe(config);
            extract::ExtractOptions runOptions;
            runOptions.seed = options.seed + 17 * run;
            runOptions.timeLimitSeconds = options.timeLimit;
            const auto result = smoothe.extract(box3.graph, runOptions);
            timeSum += result.seconds;
            if (result.ok()) {
                ++ok;
                costSum += result.cost;
                lo = std::min(lo, result.cost);
                hi = std::max(hi, result.cost);
            }
        }
        if (ok == 0) {
            table.addRow({std::to_string(seeds), "Fails", "-", "-"});
            continue;
        }
        table.addRow({std::to_string(seeds),
                      util::formatFixed(costSum / ok, 1),
                      util::formatFixed(hi - lo, 1),
                      util::formatFixed(timeSum / options.runs, 2)});
    }
    table.print(std::cout);
    return 0;
}
