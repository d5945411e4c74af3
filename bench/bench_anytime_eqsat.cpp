/**
 * @file
 * Anytime equality saturation: the incremental-extraction benchmark.
 *
 * Drives a live saturation loop on eqsat-grown workloads (caviar with
 * phased TRS scheduling, rover-style datapath, arithmetic): each epoch
 * runs one saturation iteration, exports the grown e-graph with its
 * GraphDelta (MutEGraph::exportIncremental), and re-extracts twice —
 * once through the incremental protocol (warm-started SmoothE: theta
 * and Adam carried through the delta, the grown iteration recorded and
 * compiled afresh, identity deltas served from cache) and once from
 * scratch. Reports per-epoch quality and wall time for both tracks, the
 * median per-epoch speedup, and the final-cost parity ratio.
 *
 * Every epoch also runs the delta-replay cross-check: the structural
 * delta drained from the mutable e-graph is replayed onto the pre-epoch
 * snapshot, which must then be structurally equal to the full rebuild.
 *
 * Gated in CI against bench/baselines/anytime_eqsat.json:
 *   incremental.speedup_vs_scratch >= 2   (budget entry, mean IS floor)
 *   incremental.cost_ratio <= 1.01        (final quality within 1%)
 *   delta.crosscheck_failures == 0
 *
 * Reported unchecked next to the gated lines, because identity epochs
 * (cache hits) dominate the gated median and the running minimum hides
 * per-epoch quality:
 *   incremental.changed_epoch_speedup   median over warm epochs whose
 *                                       delta is not an identity
 *   incremental.worst_epoch_cost_ratio  worst per-epoch inc/scratch cost
 *
 * Run: ./build/bench/bench_anytime_eqsat [--scale 0.1] [--epochs 6]
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "datasets/eqsat_grown.hpp"
#include "eqsat/mut_egraph.hpp"
#include "eqsat/rules.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

namespace {

/** Per-op cost in the eqsat-grown term languages (mirrors the dataset
 *  generators: leaves free, shifts/min/max cheap, multiplies dear). */
double
costOf(const std::string& op)
{
    if (op == "zero" || op == "one" || op == "two" || op == "three" ||
        op == "five" || op.rfind("v", 0) == 0)
        return 0.0;
    if (op == "+" || op == "-")
        return 4.0;
    if (op == "<<" || op == "neg")
        return 1.0;
    if (op == "min" || op == "max")
        return 2.0;
    if (op == "*" || op == "square")
        return 16.0;
    if (op == "mac")
        return 17.0;
    return 8.0;
}

/** One saturation workload: a seed term plus an epoch -> rules map. */
struct Workload
{
    std::string name;
    eqsat::TermPtr term;
    /** Rules driven in epoch `e` (caviar cycles its TRS phases). */
    const std::vector<eqsat::Rewrite>& (*rulesFor)(std::size_t e);
};

const std::vector<eqsat::Rewrite>&
caviarPhaseFor(std::size_t epoch)
{
    const auto& phases = eqsat::caviarRulePhases();
    return phases[epoch % phases.size()];
}

const std::vector<eqsat::Rewrite>&
datapathFor(std::size_t)
{
    return eqsat::datapathRules();
}

const std::vector<eqsat::Rewrite>&
arithmeticFor(std::size_t)
{
    return eqsat::arithmeticRules();
}

/** Rover-style FIR seed: sum of coefficient taps. */
eqsat::TermPtr
firTerm(std::size_t taps)
{
    const char* coefficients[] = {"two", "three", "five", "one"};
    eqsat::TermPtr acc;
    for (std::size_t k = 0; k < taps; ++k) {
        std::string var = "v";
        var += std::to_string(k);
        eqsat::TermPtr tap = eqsat::app(
            "*",
            {eqsat::leaf(coefficients[k % 4]), eqsat::leaf(std::move(var))});
        acc = acc ? eqsat::app("+", {acc, tap}) : tap;
    }
    return acc;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

} // namespace

int
main(int argc, char** argv)
{
    std::size_t epochs = 6;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            epochs = std::max<std::size_t>(2, args.getCount("epochs", 6));
        });
    // Final node budget per workload; epochs ramp up to it so every
    // epoch actually grows the graph.
    const std::size_t finalBudget = std::max<std::size_t>(
        250, static_cast<std::size_t>(5000 * options.scale));

    std::printf("=== Anytime eqsat: incremental vs from-scratch "
                "extraction ===\n");
    std::printf("scale %.2f, %zu epochs, node budget %zu\n\n",
                options.scale, epochs, finalBudget);

    util::Rng termRng(options.seed);
    // Seed terms are sums of random subtrees so single-rule collapses
    // (x - x -> 0, min(x, x) -> x) cannot reduce a workload to a leaf.
    const auto caviarSeed = [&termRng](std::size_t depth) {
        using datasets::TermFlavor;
        return eqsat::app(
            "max",
            {eqsat::app("+",
                        {datasets::randomTerm(TermFlavor::Caviar, depth,
                                              4, termRng),
                         datasets::randomTerm(TermFlavor::Caviar, depth,
                                              4, termRng)}),
             datasets::randomTerm(TermFlavor::Caviar, depth, 4, termRng)});
    };
    std::vector<Workload> workloads;
    workloads.push_back({"caviar_a", caviarSeed(4), &caviarPhaseFor});
    workloads.push_back({"caviar_b", caviarSeed(5), &caviarPhaseFor});
    workloads.push_back({"fir_6", firTerm(6), &datapathFor});
    if (!options.quick) {
        workloads.push_back(
            {"arith",
             datasets::randomTerm(datasets::TermFlavor::Arithmetic, 5, 4,
                                  termRng),
             &arithmeticFor});
    }

    // Low patience + a high iteration ceiling separates the tracks: the
    // warm start resumes at the previous optimum and exhausts patience
    // almost immediately, while a cold start keeps improving (each
    // improvement resets patience) until it has re-paid the full
    // convergence the incremental track carried over.
    core::SmoothEConfig config;
    config.numSeeds = 8;
    config.maxIterations = 400;
    config.patience = 18;
    config.learningRate = 0.1f;

    extract::ExtractOptions extractOptions;
    extractOptions.timeLimitSeconds = options.timeLimit;
    extractOptions.seed = options.seed;

    util::TablePrinter table({"Workload", "Epoch", "N", "M", "inc cost",
                              "scratch cost", "inc time", "scratch time",
                              "speedup"});

    std::vector<double> speedups;   ///< warm epochs, all workloads
    std::vector<double> changedSpeedups; ///< warm non-identity epochs
    std::vector<double> costRatios; ///< final epoch, per workload
    double worstEpochRatio = 1.0;   ///< per-epoch inc/scratch, all epochs
    std::string worstEpochAt = "-"; ///< "<workload> epoch <e>"
    std::size_t crosscheckFailures = 0;

    for (const Workload& workload : workloads) {
        eqsat::MutEGraph mut;
        const eqsat::Id root = mut.addTerm(*workload.term);
        mut.enableDeltaLog(true);

        eqsat::ExportState exportState;
        extract::IncrementalState incrementalState;
        core::SmoothEExtractor incremental(config);
        core::SmoothEExtractor scratch(config);

        obs::Series* series = nullptr;
        if (obs::Report* report = obs::Report::current()) {
            series = &report->series(
                "anytime." + workload.name,
                {"epoch", "nodes", "classes", "incCost", "scratchCost",
                 "incSeconds", "scratchSeconds"});
        }

        // Anytime incumbents: a saturation loop keeps the best
        // extraction seen so far (every epoch's selection implements
        // the same root term), so quality is compared on the running
        // minimum, not on any single epoch's draw.
        double incIncumbent = 0.0;
        double scratchIncumbent = 0.0;
        for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
            // One saturation epoch against the ramping node budget,
            // with the pre-epoch snapshot kept for the replay check.
            // Front-loaded budget: epoch 0 grows to half the cap,
            // epoch 1 to the full cap, and later epochs saturate under
            // it — matches still merge classes but adds are rejected,
            // so late deltas shrink. Those small-delta epochs are
            // exactly where incremental extraction earns its keep.
            eqsat::MutEGraph snapshot = mut;
            eqsat::RunLimits limits;
            limits.maxIterations = 8;
            limits.maxNodes =
                epoch == 0 ? finalBudget / 2 : finalBudget;
            limits.maxMatchesPerRule = 1000;
            mut.run(workload.rulesFor(epoch), limits);

            // Delta-replay cross-check: drained delta onto the
            // snapshot must reproduce the full rebuild.
            const eqsat::Delta delta = mut.drainDelta();
            snapshot.applyDelta(delta);
            if (const auto diff = snapshot.structurallyEquals(mut)) {
                ++crosscheckFailures;
                std::fprintf(stderr,
                             "delta replay diverged (%s epoch %zu): %s\n",
                             workload.name.c_str(), epoch, diff->c_str());
            }

            auto exported = mut.exportIncremental(
                mut.find(root),
                [](const std::string& op, std::size_t) {
                    return costOf(op);
                },
                exportState);

            util::Timer incTimer;
            const auto incResult = incremental.extractIncremental(
                exported.graph, exported.delta, incrementalState,
                extractOptions);
            const double incSeconds = incTimer.seconds();

            util::Timer scratchTimer;
            const auto scratchResult =
                scratch.extract(exported.graph, extractOptions);
            const double scratchSeconds = scratchTimer.seconds();

            const double speedup =
                incSeconds > 0.0 ? scratchSeconds / incSeconds : 0.0;
            if (epoch > 0) {
                speedups.push_back(speedup);
                if (!exported.delta.isIdentity())
                    changedSpeedups.push_back(speedup);
            }
            if (scratchResult.cost > 0.0 &&
                incResult.cost / scratchResult.cost > worstEpochRatio) {
                worstEpochRatio = incResult.cost / scratchResult.cost;
                worstEpochAt =
                    workload.name + " epoch " + std::to_string(epoch);
            }
            if (epoch == 0) {
                incIncumbent = incResult.cost;
                scratchIncumbent = scratchResult.cost;
            } else {
                incIncumbent = std::min(incIncumbent, incResult.cost);
                scratchIncumbent =
                    std::min(scratchIncumbent, scratchResult.cost);
            }

            if (series != nullptr) {
                series->addRow({static_cast<double>(epoch),
                                static_cast<double>(
                                    exported.graph.numNodes()),
                                static_cast<double>(
                                    exported.graph.numClasses()),
                                incResult.cost, scratchResult.cost,
                                incSeconds, scratchSeconds});
            }
            char incTime[32], scratchTime[32], speedupCell[32];
            std::snprintf(incTime, sizeof(incTime), "%.1fms",
                          incSeconds * 1e3);
            std::snprintf(scratchTime, sizeof(scratchTime), "%.1fms",
                          scratchSeconds * 1e3);
            std::snprintf(speedupCell, sizeof(speedupCell), "%.2fx%s",
                          speedup, epoch == 0 ? " (cold)" : "");
            table.addRow(
                {workload.name, std::to_string(epoch),
                 std::to_string(exported.graph.numNodes()),
                 std::to_string(exported.graph.numClasses()),
                 std::to_string(incResult.cost),
                 std::to_string(scratchResult.cost), incTime,
                 scratchTime, speedupCell});
        }
        if (scratchIncumbent > 0.0)
            costRatios.push_back(incIncumbent / scratchIncumbent);
    }

    table.print(std::cout);

    const double medianSpeedup = median(speedups);
    const double worstRatio =
        costRatios.empty()
            ? 1.0
            : *std::max_element(costRatios.begin(), costRatios.end());
    const double changedSpeedup = median(changedSpeedups);
    std::printf("\nmedian warm-epoch speedup: %.2fx (gate: >= 2)\n",
                medianSpeedup);
    std::printf("  median over changed epochs: %.2fx (unchecked)\n",
                changedSpeedup);
    std::printf("worst final cost ratio (inc/scratch): %.4f "
                "(gate: <= 1.01)\n",
                worstRatio);
    std::printf("  worst per-epoch cost ratio: %.4f at %s (unchecked)\n",
                worstEpochRatio, worstEpochAt.c_str());
    std::printf("delta replay cross-check failures: %zu\n",
                crosscheckFailures);
    std::printf("program.rerecord %llu, smoothe.warm_starts %llu\n",
                static_cast<unsigned long long>(
                    obs::counter("program.rerecord").get()),
                static_cast<unsigned long long>(
                    obs::counter("smoothe.warm_starts").get()));

    bench::reportScalar("incremental.speedup_vs_scratch", medianSpeedup,
                        "x")
        ->higherIsBetter()
        .tolerancePct(0.001);
    bench::reportScalar("incremental.cost_ratio", worstRatio)
        ->tolerancePct(1.0);
    bench::reportScalar("delta.crosscheck_failures",
                        static_cast<double>(crosscheckFailures))
        ->tolerancePct(0.001);
    bench::reportScalar("incremental.changed_epoch_speedup",
                        changedSpeedup, "x")
        ->checked(false);
    bench::reportScalar("incremental.worst_epoch_cost_ratio",
                        worstEpochRatio)
        ->checked(false);
    bench::reportScalar("incremental.program_rerecords",
                        static_cast<double>(
                            obs::counter("program.rerecord").get()))
        ->checked(false);
    bench::reportScalar(
        "incremental.runs",
        static_cast<double>(
            obs::counter("extraction.SmoothE.incremental_runs").get()))
        ->checked(false);

    return crosscheckFailures == 0 ? 0 : 1;
}
