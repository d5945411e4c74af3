/**
 * @file
 * Regenerates Figure 4: anytime cost-vs-time curves comparing SmoothE
 * against the strongest ILP preset on selected tensat and rover
 * e-graphs. Prints the two incumbent traces as (seconds, cost) series —
 * the raw data behind the paper's plots.
 *
 * Run: ./build/bench/bench_fig4_anytime [--scale 0.1] [--time-limit 10]
 */

#include <cstdio>

#include "bench/common.hpp"
#include "ilp/ilp_extractor.hpp"
#include "smoothe/smoothe.hpp"

using namespace smoothe;

namespace {

/** Dumps one incumbent trace into the process report as a
 *  (seconds, cost) series plus an unchecked final-cost measurement. */
void
reportTrace(const std::string& key,
            const extract::ExtractionResult& result)
{
    obs::Report* report = obs::Report::current();
    if (report == nullptr)
        return;
    obs::Series& series =
        report->series("anytime." + key, {"seconds", "cost"});
    for (const auto& point : result.trace)
        series.addRow({point.seconds, point.cost});
    if (result.ok())
        bench::reportScalar("fig4." + key + ".final_cost", result.cost)
            ->checked(false);
}

void
printTrace(const char* label, const extract::ExtractionResult& result)
{
    std::printf("  %s (%s, final cost %.2f):\n", label,
                extract::toString(result.status), result.cost);
    if (result.trace.empty()) {
        std::printf("    (no incumbents recorded)\n");
        return;
    }
    for (const auto& point : result.trace)
        std::printf("    t=%-8.3f cost=%.3f\n", point.seconds, point.cost);
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions options =
        bench::BenchOptions::parse(argc, argv);
    std::printf("=== Figure 4: anytime results (SmoothE vs strong ILP) "
                "===\n");
    std::printf("scale %.2f, cutoff %.1fs per method\n", options.scale,
                options.timeLimit);

    auto tensat = datasets::tensatNamedInstances(options.scale,
                                                 options.seed);
    auto rover = datasets::roverNamedInstances(options.scale, options.seed);
    std::vector<const datasets::NamedEGraph*> selected = {
        &tensat[0], &tensat[2], &rover[0], &rover[4]};

    for (const datasets::NamedEGraph* named : selected) {
        std::printf("\n--- %s/%s (N=%zu, M=%zu) ---\n",
                    named->family.c_str(), named->name.c_str(),
                    named->graph.numNodes(), named->graph.numClasses());

        extract::ExtractOptions traced;
        traced.timeLimitSeconds = options.timeLimit;
        traced.seed = options.seed;

        core::SmoothEConfig config;
        config.numSeeds = 16;
        config.maxIterations = 100000; // bounded by the time limit
        config.patience = 100000;
        core::SmoothEExtractor smoothe(config);
        const auto smootheResult = smoothe.extract(named->graph, traced);
        printTrace("SmoothE", smootheResult);
        reportTrace(named->family + "." + named->name + ".smoothe",
                    smootheResult);

        ilp::IlpExtractor ilp(ilp::IlpPreset::Strong);
        const auto ilpResult = ilp.extract(named->graph, traced);
        printTrace("ILP-strong", ilpResult);
        reportTrace(named->family + "." + named->name + ".ilp_strong",
                    ilpResult);
    }
    return 0;
}
