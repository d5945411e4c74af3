/**
 * @file
 * Regenerates Table 2: linear-cost comparison across the five realistic
 * datasets. Columns: three ILP presets (standing in for CPLEX / SCIP /
 * CBC), the egg heuristic, heuristic+, and SmoothE (3 runs, reporting the
 * mean and max deviation). Quality is the normalized cost increase over
 * an oracle obtained by running the strong ILP with a long budget.
 *
 * The per-family parent-correlation assumption follows the paper:
 * diospyros/rover/tensat use independent, flexc/impress use correlated.
 *
 * Run: ./build/bench/bench_table2_linear [--scale 0.1] [--time-limit 10]
 *      [--sweep-assumption] (extra ablation over all three assumptions)
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "extraction/bottom_up.hpp"
#include "ilp/ilp_extractor.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

namespace {

core::Assumption
paperAssumption(const std::string& family)
{
    // The paper grid-searches the assumption per dataset (Section 5.1);
    // we do the same on our structure-matched instances (run with
    // --sweep-assumption to regenerate): flexc favors independent,
    // rover/tensat correlated, diospyros/impress hybrid.
    if (family == "flexc")
        return core::Assumption::Independent;
    if (family == "rover" || family == "tensat")
        return core::Assumption::Correlated;
    return core::Assumption::Hybrid;
}

struct MethodStats
{
    std::vector<double> increases;
    std::vector<double> seconds;
    std::size_t fails = 0;

    void
    record(const extract::ExtractionResult& result, double oracle)
    {
        seconds.push_back(result.seconds);
        if (!result.ok()) {
            ++fails;
            return;
        }
        increases.push_back(
            std::max(0.0, bench::normalizedIncrease(result.cost, oracle)));
    }

    std::string
    cell() const
    {
        double timeSum = 0.0;
        for (double s : seconds)
            timeSum += s;
        const double meanTime =
            seconds.empty() ? 0.0 : timeSum / seconds.size();
        std::string top = util::formatSeconds(meanTime);
        if (fails > 0)
            top += " (" + std::to_string(fails) + ")";
        double worst = 0.0;
        for (double inc : increases)
            worst = std::max(worst, inc);
        // Geometric mean of (1 + increase) - 1 to match the paper's geo
        // averaging of normalized quality.
        std::vector<double> shifted;
        for (double inc : increases)
            shifted.push_back(1.0 + inc);
        const double avg = shifted.empty()
                               ? 0.0
                               : bench::geometricMean(shifted) - 1.0;
        std::string bottom =
            fails > 0 && increases.empty()
                ? "Failed / Failed"
                : bench::worstAvgCell(worst, avg,
                                      increases.empty() ? fails : 0);
        return top + " | " + bottom;
    }

    /** Records the headline aggregates (mean seconds, geo-avg quality
     *  increase, fail count) into the process report, unchecked. */
    void
    publish(const std::string& key) const
    {
        double timeSum = 0.0;
        for (double s : seconds)
            timeSum += s;
        bench::reportScalar(key + ".mean_seconds",
                            seconds.empty() ? 0.0
                                            : timeSum / seconds.size(),
                            "s")
            ->checked(false);
        std::vector<double> shifted;
        for (double inc : increases)
            shifted.push_back(1.0 + inc);
        bench::reportScalar(key + ".geo_avg_increase",
                            shifted.empty()
                                ? 0.0
                                : bench::geometricMean(shifted) - 1.0)
            ->checked(false);
        bench::reportScalar(key + ".fails",
                            static_cast<double>(fails))
            ->checked(false);
    }
};

} // namespace

int
main(int argc, char** argv)
{
    bool sweepAssumption = false;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            sweepAssumption = args.getBool("sweep-assumption", false);
        });

    std::printf("=== Table 2: linear cost model, 5 realistic datasets ===\n");
    std::printf("scale %.2f, ILP time limit %.1fs, SmoothE %zu runs\n\n",
                options.scale, options.timeLimit, options.runs);

    util::TablePrinter table({"Dataset", "ILP-strong (CPLEX-like)",
                              "ILP-medium (SCIP-like)",
                              "ILP-weak (CBC-like)", "Heuristic (egg)",
                              "Heuristic+", "SmoothE (ours)"});

    for (const std::string& family : datasets::realisticFamilies()) {
        const auto graphs = options.capGraphs(
            datasets::loadFamily(family, options.scale, options.seed));

        // Oracle: strong ILP with a generous budget per graph.
        std::vector<double> oracle(graphs.size());
        for (std::size_t g = 0; g < graphs.size(); ++g) {
            ilp::IlpExtractor solver(ilp::IlpPreset::Strong);
            extract::ExtractOptions oracleOptions;
            oracleOptions.timeLimitSeconds = 2.0 * options.timeLimit;
            const auto result = solver.extract(graphs[g].graph,
                                               oracleOptions);
            oracle[g] = result.ok() ? result.cost : 1.0;
        }

        MethodStats ilpStrong;
        MethodStats ilpMedium;
        MethodStats ilpWeak;
        MethodStats heuristicStats;
        MethodStats heuristicPlusStats;
        MethodStats smootheStats;

        for (std::size_t g = 0; g < graphs.size(); ++g) {
            const eg::EGraph& graph = graphs[g].graph;
            extract::ExtractOptions timed;
            timed.timeLimitSeconds = options.timeLimit;

            {
                ilp::IlpExtractor solver(ilp::IlpPreset::Strong);
                ilpStrong.record(solver.extract(graph, timed), oracle[g]);
            }
            {
                ilp::IlpExtractor solver(ilp::IlpPreset::Medium);
                ilpMedium.record(solver.extract(graph, timed), oracle[g]);
            }
            {
                ilp::IlpExtractor solver(ilp::IlpPreset::Weak);
                ilpWeak.record(solver.extract(graph, timed), oracle[g]);
            }
            {
                extract::BottomUpExtractor heuristic;
                heuristicStats.record(heuristic.extract(graph, {}),
                                      oracle[g]);
            }
            {
                extract::FasterBottomUpExtractor heuristicPlus;
                heuristicPlusStats.record(heuristicPlus.extract(graph, {}),
                                          oracle[g]);
            }
            for (std::size_t run = 0; run < options.runs; ++run) {
                core::SmoothEConfig config;
                config.assumption = paperAssumption(family);
                config.numSeeds = 64;
                config.maxIterations = 300;
                config.patience = 80;
                core::SmoothEExtractor smoothe(config);
                extract::ExtractOptions smootheOptions;
                smootheOptions.seed = options.seed + run * 101 + g;
                smootheOptions.timeLimitSeconds = options.timeLimit;
                smootheStats.record(smoothe.extract(graph, smootheOptions),
                                    oracle[g]);
            }
        }

        table.addRow({family, ilpStrong.cell(), ilpMedium.cell(),
                      ilpWeak.cell(), heuristicStats.cell(),
                      heuristicPlusStats.cell(), smootheStats.cell()});
        ilpStrong.publish("table2." + family + ".ilp_strong");
        heuristicStats.publish("table2." + family + ".heuristic");
        smootheStats.publish("table2." + family + ".smoothe");
    }
    table.print(std::cout);
    std::printf("\ncell format: mean time s (#fails) | worst / geo-avg "
                "normalized cost increase vs oracle\n");

    if (sweepAssumption) {
        std::printf("\n--- assumption ablation (first graph per family, "
                    "SmoothE cost) ---\n");
        util::TablePrinter sweep({"Dataset", "independent", "correlated",
                                  "hybrid"});
        for (const std::string& family : datasets::realisticFamilies()) {
            const auto graphs =
                datasets::loadFamily(family, options.scale, options.seed);
            std::vector<std::string> row{family};
            for (const core::Assumption assumption :
                 {core::Assumption::Independent,
                  core::Assumption::Correlated, core::Assumption::Hybrid}) {
                core::SmoothEConfig config;
                config.assumption = assumption;
                config.numSeeds = 16;
                config.maxIterations = 200;
                core::SmoothEExtractor smoothe(config);
                extract::ExtractOptions runOptions;
                runOptions.seed = options.seed;
                runOptions.timeLimitSeconds = options.timeLimit;
                const auto result =
                    smoothe.extract(graphs.front().graph, runOptions);
                row.push_back(result.ok() ? util::formatFixed(result.cost, 1)
                                          : "Failed");
            }
            sweep.addRow(std::move(row));
        }
        sweep.print(std::cout);
    }
    return 0;
}
