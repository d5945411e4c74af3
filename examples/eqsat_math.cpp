/**
 * @file
 * Equality saturation from scratch: start from a term, apply rewrite
 * rules to saturation, export the e-graph, and extract the cheapest
 * equivalent program — the full Section 2 workflow on a trigonometric
 * simplification task.
 *
 * Run: ./build/examples/eqsat_math --term "(+ (square (sec a)) (tan a))"
 */

#include <cstdio>
#include <string>

#include "eqsat/mut_egraph.hpp"
#include "eqsat/term.hpp"
#include "extraction/bottom_up.hpp"
#include "obs/cli.hpp"
#include "smoothe/smoothe.hpp"
#include "util/args.hpp"

int
main(int argc, char** argv)
{
    using namespace smoothe;

    const util::Args args(argc, argv);
    const std::string input =
        args.getString("term", "(+ (square (sec a)) (tan a))");
    if (obs::reportUnknownFlags(args, "eqsat_math") > 0)
        return 2;
    auto term = eqsat::parseTerm(input);
    if (!term) {
        std::fprintf(stderr, "cannot parse term: %s\n", input.c_str());
        return 1;
    }
    std::printf("input term: %s\n", (*term)->toString().c_str());

    // Rewrite rules (the paper's two, plus algebraic identities).
    const std::vector<eqsat::Rewrite> rules = {
        eqsat::rewrite("sec-to-cos", "(sec ?x)", "(recip (cos ?x))"),
        eqsat::rewrite("sec2-to-tan2", "(square (sec ?x))",
                       "(+ one (square (tan ?x)))"),
        eqsat::rewrite("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        eqsat::rewrite("mul-comm", "(* ?a ?b)", "(* ?b ?a)"),
        eqsat::rewrite("mul-one", "(* ?a one)", "?a"),
        eqsat::rewrite("square-as-mul", "(square ?x)", "(* ?x ?x)"),
    };

    eqsat::MutEGraph mut;
    const auto root = mut.addTerm(**term);
    eqsat::RunLimits limits;
    limits.maxIterations = 8;
    limits.maxNodes = 20000;
    const auto stats = mut.run(rules, limits);
    std::printf("saturation: %zu iterations, %zu e-nodes, %zu e-classes, "
                "%s\n",
                stats.iterations, stats.finalNodes, stats.finalClasses,
                stats.saturated ? "saturated" : "limit reached");

    // Operator cost model (trig functions expensive, arithmetic cheap).
    const eg::EGraph graph = mut.exportGraph(
        root, [](const std::string& op, std::size_t) -> double {
            if (op == "a" || op == "one")
                return 0.0;
            if (op == "+")
                return 2.0;
            if (op == "*" || op == "square" || op == "recip")
                return 5.0;
            return 10.0; // sec / cos / tan / ...
        });

    extract::BottomUpExtractor heuristic;
    const auto greedy = heuristic.extract(graph, {});
    std::printf("heuristic extraction: cost %.1f\n", greedy.cost);

    core::SmoothEConfig config;
    config.numSeeds = 16;
    config.maxIterations = 200;
    core::SmoothEExtractor smoothe(config);
    extract::ExtractOptions options;
    options.seed = 7;
    const auto best = smoothe.extract(graph, options);
    std::printf("SmoothE extraction  : cost %.1f (%.2fs)\n", best.cost,
                best.seconds);
    return best.ok() ? 0 : 1;
}
