/**
 * @file
 * Non-linear cost models end to end (Section 5.5): train an MLP cost
 * correction on synthetic data, then extract with SmoothE (which
 * optimizes the true differentiable objective), the genetic baseline, and
 * the linear-oracle proxy ILP*.
 *
 * Run: ./build/examples/nonlinear_cost [--scale 0.1]
 */

#include <cstdio>
#include <memory>

#include "costmodel/cost_model.hpp"
#include "datasets/generators.hpp"
#include "extraction/genetic.hpp"
#include "ilp/ilp_extractor.hpp"
#include "obs/cli.hpp"
#include "smoothe/smoothe.hpp"
#include "util/args.hpp"

int
main(int argc, char** argv)
{
    using namespace smoothe;
    const util::Args args(argc, argv);
    const double scale = args.getDouble("scale", 0.1);
    if (obs::reportUnknownFlags(args, "nonlinear_cost") > 0)
        return 2;

    datasets::FamilyParams params = datasets::roverParams();
    params.numClasses = static_cast<std::size_t>(params.numClasses * scale);
    const eg::EGraph graph = datasets::generateStructured(params, 321);
    std::printf("e-graph: N=%zu, M=%zu\n", graph.numNodes(),
                graph.numClasses());

    // Cost model: linear area + trained MLP correction (clustering
    // effects a linear model cannot see).
    util::Rng rng(17);
    auto linear = std::make_shared<cost::LinearCost>(graph);
    auto mlp = std::make_shared<cost::MlpCost>(graph.numNodes(), rng);
    util::Rng trainRng(18);
    const double mse = mlp->trainSynthetic(graph, 48, 60, trainRng);
    std::printf("MLP trained on 48 synthetic samples, final MSE %.4f\n",
                mse);
    const cost::CompositeCost model(linear, mlp, 1.0f);

    extract::ExtractOptions options;
    options.seed = 4;

    // SmoothE differentiates straight through the MLP.
    core::SmoothEConfig config;
    config.numSeeds = 16;
    config.maxIterations = 200;
    core::SmoothEExtractor smoothe(config);
    const auto smootheResult = smoothe.extractWithCost(graph, model,
                                                       options);
    std::printf("%-10s cost %10.2f  time %6.2fs\n", "SmoothE",
                smootheResult.cost, smootheResult.seconds);

    // Genetic: black-box, no gradients.
    extract::GeneticExtractor genetic;
    const auto geneticResult = genetic.extractWithCost(
        graph,
        [&](const eg::EGraph& g, const extract::Selection& sel) {
            return model.discrete(sel.toNodeIndicator(g));
        },
        options);
    std::printf("%-10s cost %10.2f  time %6.2fs\n", "genetic",
                geneticResult.cost, geneticResult.seconds);

    // ILP*: optimize the linear part only, re-score under the full model.
    ilp::IlpExtractor ilp(ilp::IlpPreset::Strong);
    extract::ExtractOptions ilpOptions;
    ilpOptions.timeLimitSeconds = 10.0;
    const auto oracle = ilp.extract(graph, ilpOptions);
    if (oracle.ok()) {
        const double rescored =
            model.discrete(oracle.selection.toNodeIndicator(graph));
        std::printf("%-10s cost %10.2f  time %6.2fs (linear proxy)\n",
                    "ILP*", rescored, oracle.seconds);
    }
    return smootheResult.ok() ? 0 : 1;
}
