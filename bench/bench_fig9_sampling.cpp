/**
 * @file
 * Regenerates Figure 9: optimization loss f(p) vs sampled discrete loss
 * f_b(s) over the optimization steps, on tensat and rover e-graphs. The
 * claim: the relaxed loss tracks the sampled loss closely throughout,
 * i.e. sampling effectively discretizes the relaxed solution.
 *
 * Run: ./build/bench/bench_fig9_sampling [--scale 0.1] [--iters 60]
 */

#include <cstdio>

#include "bench/common.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

int
main(int argc, char** argv)
{
    std::size_t iters = 60;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            iters = args.getCount("iters", 60);
        });

    std::printf("=== Figure 9: optimization loss vs sampling loss ===\n");

    auto tensat = datasets::tensatNamedInstances(options.scale,
                                                 options.seed);
    auto rover = datasets::roverNamedInstances(options.scale, options.seed);
    std::vector<const datasets::NamedEGraph*> selected = {
        &tensat[2], &tensat[4], &rover[0], &rover[4]};

    for (const datasets::NamedEGraph* named : selected) {
        core::SmoothEConfig config;
        config.numSeeds = 16;
        config.maxIterations = iters;
        config.patience = 1000000;
        core::SmoothEExtractor smoothe(config);
        extract::ExtractOptions runOptions;
        runOptions.seed = options.seed;
        runOptions.timeLimitSeconds = options.timeLimit;
        const auto result = smoothe.extract(named->graph, runOptions);

        std::printf("\n--- %s/%s (final cost %.2f) ---\n",
                    named->family.c_str(), named->name.c_str(),
                    result.cost);
        std::printf("%6s %14s %14s %12s\n", "step", "f(p) relaxed",
                    "f_b(s) sampled", "NOTEARS h");
        const auto& curve = smoothe.diagnostics().convergence;
        const std::size_t stride = std::max<std::size_t>(1,
                                                         curve.size() / 20);
        for (std::size_t i = 0; i < curve.size(); i += stride) {
            const auto& point = curve[i];
            std::printf("%6zu %14.3f %14.3f %12.4f\n", point.iteration,
                        point.softCost, point.iterSampledCost,
                        point.penalty);
        }
    }
    return 0;
}
