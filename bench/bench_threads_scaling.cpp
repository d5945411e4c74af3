/**
 * @file
 * Thread-scaling sweep: one SmoothE extraction on a Table-2-sized rover
 * e-graph at pool sizes 1, 2, 4, ..., --max-threads, reporting wall time,
 * speedup, and parallel efficiency per row. The extracted cost and the
 * chosen e-nodes must be bit-identical across all pool sizes (the pool's
 * determinism contract); any divergence fails the bench with exit 1.
 *
 * The time limit is disabled during the sweep: a limit that fires at a
 * different iteration per pool size would change the result for reasons
 * unrelated to determinism. Iteration count bounds the work instead.
 *
 * Run: ./build/bench/bench_threads_scaling [--scale 0.1] [--max-threads 8]
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "smoothe/smoothe.hpp"
#include "util/thread_pool.hpp"

using namespace smoothe;

int
main(int argc, char** argv)
{
    std::size_t maxThreads = 0;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            maxThreads = args.getCount(
                "max-threads", util::ThreadPool::hardwareThreads());
        });

    auto rover =
        datasets::roverNamedInstances(options.scale * 3.0, options.seed);
    const auto& instance = rover[4]; // box_3, as in the Figure 7 bench
    std::printf("=== Thread scaling on %s (N=%zu, M=%zu, hw=%zu) ===\n\n",
                instance.name.c_str(), instance.graph.numNodes(),
                instance.graph.numClasses(),
                util::ThreadPool::hardwareThreads());

    util::TablePrinter table(
        {"threads", "cost", "best time (s)", "speedup", "efficiency"});
    double baseSeconds = 0.0;
    double baseCost = 0.0;
    std::vector<std::uint32_t> baseChoice;
    bool deterministic = true;

    for (std::size_t threads = 1; threads <= maxThreads; threads *= 2) {
        util::ThreadPool::setGlobalThreads(threads);

        double best = 1e300;
        double cost = 0.0;
        std::vector<std::uint32_t> choice;
        bool ok = true;
        for (std::size_t run = 0; run < options.runs; ++run) {
            core::SmoothEConfig config;
            config.numSeeds = 16;
            config.maxIterations = options.quick ? 60 : 150;
            core::SmoothEExtractor smoothe(config);
            extract::ExtractOptions runOptions;
            runOptions.seed = options.seed;
            runOptions.timeLimitSeconds = 1e9; // see the file comment
            const auto result = smoothe.extract(instance.graph, runOptions);
            if (!result.ok()) {
                ok = false;
                break;
            }
            best = std::min(best, result.seconds);
            cost = result.cost;
            choice = result.selection.choice;
        }
        if (!ok) {
            table.addRow({std::to_string(threads), "Fails", "-", "-", "-"});
            continue;
        }

        if (threads == 1) {
            baseSeconds = best;
            baseCost = cost;
            baseChoice = choice;
        } else if (cost != baseCost || choice != baseChoice) {
            deterministic = false;
        }
        const double speedup = best > 0.0 ? baseSeconds / best : 0.0;
        // Exported via --metrics-out: one gauge per pool size.
        obs::gauge("bench.speedup.threads_" + std::to_string(threads))
            .set(speedup);
        bench::reportScalar("scaling.threads_" + std::to_string(threads) +
                                ".best_seconds",
                            best, "s")
            ->checked(false);
        bench::reportScalar("scaling.threads_" + std::to_string(threads) +
                                ".speedup",
                            speedup, "x")
            ->higherIsBetter()
            .checked(false);
        table.addRow({std::to_string(threads), util::formatFixed(cost, 1),
                      util::formatFixed(best, 3),
                      util::formatFixed(speedup, 2) + "x",
                      util::formatPercent(
                          speedup / static_cast<double>(threads))});
    }
    table.print(std::cout);

    if (!deterministic) {
        std::fprintf(stderr,
                     "FAIL: extraction result changed with pool size "
                     "(determinism contract violated)\n");
        return 1;
    }
    std::printf("\nresults bit-identical across pool sizes: yes\n");
    return 0;
}
