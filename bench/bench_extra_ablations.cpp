/**
 * @file
 * Ablations of SmoothE's design choices beyond the paper's Figure 6
 * (called out in DESIGN.md): NOTEARS lambda, propagation-iteration count
 * and parent-correlation assumption — each swept on one cyclic
 * tensat-style e-graph and one rover-style e-graph with everything else
 * fixed.
 *
 * Run: ./build/bench/bench_extra_ablations [--scale 0.1]
 */

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

namespace {

struct RunOutcome
{
    double cost = 0.0;
    double seconds = 0.0;
    bool ok = false;
};

RunOutcome
run(const eg::EGraph& graph, const core::SmoothEConfig& config,
    const bench::BenchOptions& options)
{
    core::SmoothEExtractor extractor(config);
    extract::ExtractOptions runOptions;
    runOptions.seed = options.seed;
    runOptions.timeLimitSeconds = options.timeLimit;
    const auto result = extractor.extract(graph, runOptions);
    RunOutcome outcome;
    outcome.ok = result.ok();
    outcome.cost = result.cost;
    outcome.seconds = result.seconds;
    return outcome;
}

std::string
cell(const RunOutcome& outcome)
{
    if (!outcome.ok)
        return "Fails";
    return util::formatFixed(outcome.cost, 1) + " / " +
           util::formatSeconds(outcome.seconds);
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options =
        bench::BenchOptions::parse(argc, argv);
    std::printf("=== Extra ablations: SmoothE design choices ===\n");
    std::printf("scale %.2f; cells are cost / seconds\n", options.scale);

    datasets::FamilyParams tensatLike = datasets::tensatParams();
    tensatLike.numClasses = static_cast<std::size_t>(
        tensatLike.numClasses * options.scale);
    tensatLike.cycleFraction = 0.04; // ensure NOTEARS has work to do
    const eg::EGraph cyclic =
        datasets::generateStructured(tensatLike, options.seed);

    datasets::FamilyParams roverLike = datasets::roverParams();
    roverLike.numClasses = static_cast<std::size_t>(
        roverLike.numClasses * options.scale);
    const eg::EGraph datapath =
        datasets::generateStructured(roverLike, options.seed + 1);

    core::SmoothEConfig base;
    base.numSeeds = 32;
    base.maxIterations = 200;
    base.patience = 80;

    const struct
    {
        const char* name;
        const eg::EGraph* graph;
    } graphs[] = {{"tensat-like (cyclic)", &cyclic},
                  {"rover-like", &datapath}};

    for (const auto& g : graphs) {
        std::printf("\n--- %s (N=%zu, M=%zu) ---\n", g.name,
                    g.graph->numNodes(), g.graph->numClasses());

        {
            util::TablePrinter table({"lambda", "result"});
            for (const float lambda : {0.0f, 1.0f, 8.0f, 64.0f}) {
                core::SmoothEConfig config = base;
                config.lambda = lambda;
                table.addRow({util::formatFixed(lambda, 1),
                              cell(run(*g.graph, config, options))});
            }
            std::printf("NOTEARS lambda sweep:\n");
            table.print(std::cout);
        }
        {
            util::TablePrinter table({"prop iters", "result"});
            for (const std::size_t iters : {2u, 4u, 8u, 16u, 32u}) {
                core::SmoothEConfig config = base;
                config.propagationIterations = iters;
                table.addRow({std::to_string(iters),
                              cell(run(*g.graph, config, options))});
            }
            std::printf("propagation iteration sweep (0=auto depth):\n");
            table.print(std::cout);
        }
        {
            util::TablePrinter table({"assumption", "result"});
            for (const auto assumption :
                 {core::Assumption::Independent,
                  core::Assumption::Correlated,
                  core::Assumption::Hybrid}) {
                core::SmoothEConfig config = base;
                config.assumption = assumption;
                table.addRow({core::toString(assumption),
                              cell(run(*g.graph, config, options))});
            }
            std::printf("assumption sweep:\n");
            table.print(std::cout);
        }
    }
    return 0;
}
