/**
 * @file
 * Regenerates Figure 8: run-time profiling of SmoothE per dataset —
 * shares of Loss Calculation, Gradient Descent (backward + optimizer),
 * Sampling, and Other, geometric-averaged across the e-graphs of each
 * family. The paper's observation: optimization dominates, sampling is
 * 4.8% - 21.8%.
 *
 * --op-profile drops one level below the phase shares: it enables the
 * per-op kernel profiler (obs::Profiler) for the run and prints the
 * top kernels by self time across all families.
 *
 * Run: ./build/bench/bench_fig8_profiling [--scale 0.1] [--op-profile]
 */

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "obs/profiler.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

int
main(int argc, char** argv)
{
    bool opProfile = false;
    const bench::BenchOptions options = bench::BenchOptions::parse(
        argc, argv, [&](const util::Args& args) {
            opProfile = args.getBool("op-profile", false);
        });
    if (opProfile)
        obs::Profiler::instance().enable();
    std::printf("=== Figure 8: run-time profiling of SmoothE ===\n");
    std::printf("scale %.2f; per-family geometric mean of phase shares\n\n",
                options.scale);

    util::TablePrinter table({"Dataset", "Loss Calc", "Gradient Descent",
                              "Sampling", "Other", "total (s)"});

    for (const std::string& family : datasets::allFamilies()) {
        const auto graphs =
            datasets::loadFamily(family, options.scale, options.seed);
        std::vector<double> lossShares;
        std::vector<double> gradShares;
        std::vector<double> sampleShares;
        std::vector<double> otherShares;
        double totalTime = 0.0;
        const std::size_t limit = std::min<std::size_t>(graphs.size(), 4);
        for (std::size_t g = 0; g < limit; ++g) {
            core::SmoothEConfig config;
            config.numSeeds = 16;
            config.maxIterations = 40;
            config.patience = 1000;
            core::SmoothEExtractor smoothe(config);
            extract::ExtractOptions runOptions;
            runOptions.seed = options.seed + g;
            runOptions.timeLimitSeconds = options.timeLimit;
            const auto result = smoothe.extract(graphs[g].graph,
                                                runOptions);
            const auto& profile = smoothe.diagnostics().profile;
            // "Other" is everything the named phases do not cover,
            // derived against the extraction wall time so untimed
            // bookkeeping shows up. Timer granularity can push the
            // phase sum past the wall clock; clamp the share at zero
            // (and warn, since a large excess means overlapping
            // timers) instead of printing a negative percentage.
            const double wall = std::max(result.seconds, 1e-9);
            const double phases = profile.lossSeconds +
                                  profile.gradientSeconds +
                                  profile.samplingSeconds +
                                  profile.otherSeconds;
            if (phases > wall) {
                std::fprintf(stderr,
                             "warning: %s graph %zu: summed phase "
                             "times (%.3fs) exceed wall time (%.3fs); "
                             "clamping the derived Other share at 0\n",
                             family.c_str(), g, phases, wall);
            }
            const double denom = std::max(wall, phases);
            lossShares.push_back(profile.lossSeconds / denom);
            gradShares.push_back(profile.gradientSeconds / denom);
            sampleShares.push_back(profile.samplingSeconds / denom);
            otherShares.push_back(
                std::max(0.0, wall - phases + profile.otherSeconds) /
                denom);
            totalTime += result.seconds;
        }
        table.addRow(
            {family,
             util::formatPercent(bench::geometricMean(lossShares)),
             util::formatPercent(bench::geometricMean(gradShares)),
             util::formatPercent(bench::geometricMean(sampleShares)),
             util::formatPercent(bench::geometricMean(otherShares)),
             util::formatSeconds(totalTime)});
    }
    table.print(std::cout);

    if (opProfile) {
        std::vector<obs::KernelStats> kernels =
            obs::Profiler::instance().snapshot();
        std::sort(kernels.begin(), kernels.end(),
                  [](const obs::KernelStats& a,
                     const obs::KernelStats& b) {
                      return a.selfSeconds > b.selfSeconds;
                  });
        std::printf("\nper-op kernel attribution, top %zu by self time "
                    "(full table: smoothe_report profile "
                    "BENCH_fig8_profiling.json)\n",
                    std::min<std::size_t>(kernels.size(), 12));
        util::TablePrinter opTable(
            {"kernel", "calls", "self", "GFLOP/s", "FLOP/B"});
        for (std::size_t i = 0; i < kernels.size() && i < 12; ++i) {
            const obs::KernelStats& k = kernels[i];
            const double gflops =
                k.selfSeconds > 0.0
                    ? static_cast<double>(k.flops) / k.selfSeconds / 1e9
                    : 0.0;
            opTable.addRow(
                {k.name, std::to_string(k.calls),
                 util::formatSeconds(k.selfSeconds) + "s",
                 util::formatFixed(gflops, 2),
                 util::formatFixed(k.intensity(), 2)});
        }
        opTable.print(std::cout);
    }
    return 0;
}
