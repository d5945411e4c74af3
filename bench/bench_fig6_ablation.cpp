/**
 * @file
 * Regenerates Figure 6: performance-optimization ablation on tensat
 * e-graphs. Three configurations, matching the paper's bars:
 *   CPU baseline : the kernels at SIMD level scalar on one thread, no SCC
 *                  decomposition, per-seed dense matexp
 *   +GPU         : the kernels at the active SIMD level on every pool
 *                  thread (Section 4.1/4.2 stand-in)
 *   +MatExp      : +GPU with SCC decomposition + batched approximation
 *                  (Section 4.3)
 * Reports per-iteration optimization time and the speedup vs baseline;
 * a small arena budget on the no-SCC configurations reproduces the OOM
 * entries for larger graphs.
 *
 * Run: ./build/bench/bench_fig6_ablation [--scale 0.1]
 */

#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "smoothe/smoothe.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

using namespace smoothe;

namespace {

struct AblationResult
{
    bool oom = false;
    double secondsPerIter = 0.0;
};

AblationResult
run(const eg::EGraph& graph, bool scc, bool batched,
    std::size_t budget_bytes, std::uint64_t seed)
{
    core::SmoothEConfig config;
    config.sccDecomposition = scc;
    config.batchedMatexp = batched;
    config.numSeeds = 8;
    config.maxIterations = 8;
    config.patience = 1000;
    config.memoryBudgetBytes = budget_bytes;
    core::SmoothEExtractor smoothe(config);
    extract::ExtractOptions options;
    options.seed = seed;
    const auto result = smoothe.extract(graph, options);
    AblationResult out;
    out.oom = smoothe.diagnostics().outOfMemory;
    const std::size_t iters =
        std::max<std::size_t>(1, smoothe.diagnostics().iterations);
    out.secondsPerIter = result.seconds / static_cast<double>(iters);
    return out;
}

std::string
cell(const AblationResult& result, const AblationResult& baseline)
{
    if (result.oom)
        return "OOM";
    char buf[64];
    if (baseline.oom || baseline.secondsPerIter <= 0.0) {
        std::snprintf(buf, sizeof(buf), "%.3fs/it", result.secondsPerIter);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3fs/it (%.1fx)",
                      result.secondsPerIter,
                      baseline.secondsPerIter / result.secondsPerIter);
    }
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options =
        bench::BenchOptions::parse(argc, argv);
    std::printf("=== Figure 6: performance optimization ablation (tensat) "
                "===\n");
    std::printf("scale %.2f; speedups relative to the CPU baseline\n\n",
                options.scale);

    // A budget that comfortably fits the SCC-decomposed runs but not a
    // dense M x M NOTEARS matrix on the bigger graphs -> OOM rows, as in
    // the paper's figure.
    const std::size_t budget = 768ull << 20;
    // The --threads count: +GPU and +MatExp run on it, the baseline on
    // one thread.
    const std::size_t threads = util::ThreadPool::global().size();
    const tensor::simd::Level level = tensor::simd::activeLevel();

    util::TablePrinter table({"E-Graph", "N", "M", "CPU baseline", "+GPU",
                              "+MatExp"});
    for (const auto& named :
         datasets::tensatNamedInstances(options.scale, options.seed)) {
        tensor::simd::setLevel(tensor::simd::Level::Scalar);
        util::ThreadPool::setGlobalThreads(1);
        const auto baseline =
            run(named.graph, false, false, budget, options.seed);
        util::ThreadPool::setGlobalThreads(threads);
        tensor::simd::setLevel(level);
        const auto gpu = run(named.graph, false, false, budget, options.seed);
        const auto matexp =
            run(named.graph, true, true, budget, options.seed);
        table.addRow({named.name, std::to_string(named.graph.numNodes()),
                      std::to_string(named.graph.numClasses()),
                      cell(baseline, baseline), cell(gpu, baseline),
                      cell(matexp, baseline)});
    }
    table.print(std::cout);
    std::printf("\nCPU baseline = generic (SIMD level scalar) kernels on 1 "
                "thread + dense whole-graph NOTEARS; +GPU = %s kernels on "
                "%zu threads; +MatExp = SCC decomposition + batched "
                "matrix-exponential approximation\n",
                tensor::simd::levelName(level), threads);
    return 0;
}
