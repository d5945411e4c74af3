/**
 * @file
 * NP-hard problems as e-graph extraction (the paper's adversarial
 * datasets, Section 5.3): encode a weighted minimum set-cover instance as
 * an e-graph, then watch the extractor hierarchy invert versus the
 * realistic datasets — ILP is instantly optimal, tree-cost heuristics
 * overpay by integer factors, and SmoothE lands in between.
 *
 * Run: ./build/examples/adversarial [--elements 60] [--sets 14]
 */

#include <cstdio>

#include "datasets/nphard.hpp"
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
    const std::size_t elements = args.getCount("elements", 60);
    const std::size_t sets = args.getCount("sets", 14);
    if (obs::reportUnknownFlags(args, "adversarial") > 0)
        return 2;

    util::Rng rng(7);
    const auto instance =
        datasets::randomSetCover(elements, sets, 5.0, rng);
    const eg::EGraph graph = datasets::setCoverToEGraph(instance);
    std::printf("set cover: %zu elements, %zu sets -> e-graph N=%zu, "
                "M=%zu\n\n",
                elements, sets, graph.numNodes(), graph.numClasses());

    extract::ExtractOptions options;
    options.seed = 1;
    options.timeLimitSeconds = 30.0;

    ilp::IlpExtractor ilp(ilp::IlpPreset::Strong);
    const auto exact = ilp.extract(graph, options);
    std::printf("%-12s cost %8.1f  time %6.2fs (%s)\n", "ILP", exact.cost,
                exact.seconds, extract::toString(exact.status));

    extract::BottomUpExtractor heuristic;
    const auto greedy = heuristic.extract(graph, options);
    std::printf("%-12s cost %8.1f  time %6.2fs  (%.1fx optimal)\n",
                "heuristic", greedy.cost, greedy.seconds,
                exact.ok() ? greedy.cost / exact.cost : 0.0);

    core::SmoothEConfig config;
    config.numSeeds = 32;
    config.maxIterations = 250;
    core::SmoothEExtractor smoothe(config);
    const auto relaxed = smoothe.extract(graph, options);
    std::printf("%-12s cost %8.1f  time %6.2fs  (%.1fx optimal)\n",
                "SmoothE", relaxed.cost, relaxed.seconds,
                exact.ok() ? relaxed.cost / exact.cost : 0.0);

    // Show which sets each method actually bought.
    auto selectedSets = [&](const extract::Selection& sel) {
        std::size_t count = 0;
        for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
            if (sel.chosen(cls) &&
                graph.node(sel.choice[cls]).op.rfind("set_", 0) == 0)
                ++count;
        }
        return count;
    };
    if (exact.ok() && relaxed.ok() && greedy.ok()) {
        std::printf("\nsets bought: ILP %zu, SmoothE %zu, heuristic %zu\n",
                    selectedSets(exact.selection),
                    selectedSets(relaxed.selection),
                    selectedSets(greedy.selection));
    }
    return exact.ok() ? 0 : 1;
}
