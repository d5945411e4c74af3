/**
 * @file
 * Command-line extractor, compatible with extraction-gym JSON e-graphs.
 *
 * Usage:
 *   smoothe_extract --input egraph.json [--extractor smoothe]
 *                   [--time-limit 10] [--seed 1] [--seeds 16]
 *                   [--assumption hybrid] [--lambda 8] [--lr 0.1]
 *                   [--max-iters 400] [--patience 60]
 *                   [--output selection.json] [--threads N] [--validate]
 *                   [--trace-out trace.json] [--metrics-out metrics.json]
 *                   [--report-out report.json]
 *                   [--profile] [--profile-out prof.folded]
 *                   [--profile-stride N]
 *
 * A numeric flag whose value does not parse (`--seeds abc`, or a negative
 * count such as `--max-iters -5`) is a usage error: exit status 2, like
 * an unknown flag.
 *
 * A suite of e-graphs can be given as `--inputs a.json,b.json,...`; the
 * graphs are then extracted concurrently on the worker pool (one task per
 * graph, --threads controls the pool size). Each graph derives its RNG
 * stream from --seed and its position in the list, so results are
 * bit-identical for any thread count and the first graph matches a
 * single --input run with the same seed.
 *
 * Prints a one-line summary (extractor, status, cost, time) per graph in
 * input order and, when --output is given (single graph only), writes the
 * chosen e-node per e-class as JSON:
 *   {"choices": {"<class>": <node>, ...}, "cost": ..., "status": "..."}
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/factory.hpp"
#include "egraph/serialize.hpp"
#include "extraction/validate.hpp"
#include "obs/cli.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

/** Splits "a.json,b.json" into its comma-separated parts. */
std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start)
            parts.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

/** Per-graph RNG stream: graph 0 keeps the base seed unchanged. */
std::uint64_t
graphSeed(std::uint64_t base, std::size_t index)
{
    return base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index));
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace smoothe;
    const util::Args args(argc, argv);
    obs::installCliTelemetry(
        args, obs::toolNameFromArgv0(argc > 0 ? argv[0] : nullptr,
                                     "smoothe_extract")
                  .c_str());

    std::vector<std::string> inputs;
    const std::string inputList = args.getString("inputs", "");
    if (!inputList.empty())
        inputs = splitList(inputList);
    const std::string input = args.getString("input", "");
    if (inputs.empty() && !input.empty())
        inputs.push_back(input);
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "usage: smoothe_extract --input egraph.json "
                     "[--extractor NAME] [--output out.json]\n"
                     "       smoothe_extract --inputs a.json,b.json,... "
                     "[--threads N]\n"
                     "extractors:");
        for (const auto& name : api::extractorNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    const std::string assumptionName =
        args.getString("assumption", "hybrid");
    std::optional<core::Assumption> assumption;
    for (const core::Assumption known :
         {core::Assumption::Independent, core::Assumption::Correlated,
          core::Assumption::Hybrid}) {
        if (assumptionName == core::toString(known))
            assumption = known;
    }
    if (!assumption) {
        std::fprintf(stderr,
                     "error: unknown --assumption '%s' (expected "
                     "independent, correlated or hybrid)\n",
                     assumptionName.c_str());
        return 2;
    }

    std::vector<eg::EGraph> graphs;
    graphs.reserve(inputs.size());
    for (const std::string& path : inputs) {
        std::string error;
        auto graph = eg::loadFromFile(path, &error);
        if (!graph) {
            std::fprintf(stderr, "error: cannot load %s: %s\n",
                         path.c_str(), error.c_str());
            return 1;
        }
        graphs.push_back(std::move(*graph));
    }

    core::SmoothEConfig config;
    config.numSeeds = args.getCount("seeds", 16);
    config.lambda = static_cast<float>(args.getDouble("lambda", 8.0));
    config.learningRate = static_cast<float>(args.getDouble("lr", 0.1));
    config.maxIterations = args.getCount("max-iters", 400);
    config.patience = args.getCount("patience", 60);
    config.assumption = *assumption;

    const std::string name = args.getString("extractor", "smoothe");

    extract::ExtractOptions options;
    options.timeLimitSeconds = args.getDouble("time-limit", 10.0);
    options.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    const std::string output = args.getString("output", "");
    const bool validateResults = args.getBool("validate", false);
    // Hidden test hook, checked below once extraction has produced
    // telemetry: throw an uncaught exception so tests can assert that
    // the std::terminate flush hook leaves --trace-out/--report-out/
    // --profile-out files valid on a mid-run abort (tests/test_tools).
    const bool selftestTerminate =
        args.getBool("selftest-terminate", false);
    if (obs::reportUnknownFlags(args, "smoothe_extract") > 0)
        return 2;
    if (!output.empty() && graphs.size() > 1) {
        std::fprintf(stderr,
                     "error: --output requires a single --input\n");
        return 2;
    }
    // One extractor per graph (extractors keep per-run diagnostics), run
    // concurrently on the pool. Results are collected per slot and
    // printed in input order afterwards, so stdout is deterministic.
    std::vector<std::unique_ptr<extract::Extractor>> extractors(
        graphs.size());
    for (std::size_t g = 0; g < graphs.size(); ++g) {
        extractors[g] = api::makeExtractor(name, config);
        if (!extractors[g]) {
            std::fprintf(stderr, "error: unknown extractor \"%s\"\n",
                         name.c_str());
            return 2;
        }
    }

    std::vector<extract::ExtractionResult> results(graphs.size());
    util::ThreadPool::global().parallelFor(
        0, graphs.size(), 1, [&](std::size_t g) {
            extract::ExtractOptions graphOptions = options;
            graphOptions.seed = graphSeed(options.seed, g);
            results[g] = extractors[g]->extract(graphs[g], graphOptions);
        });

    if (selftestTerminate)
        throw std::runtime_error(
            "smoothe_extract: --selftest-terminate requested abort");

    if (obs::Report* report = obs::Report::current()) {
        report->setRun("extractor", name);
        report->setRun("graphs", graphs.size());
        obs::Measurement& cost =
            report->measurement("extract.cost").checked(false);
        obs::Measurement& seconds = report->measurement("extract.seconds")
                                        .unit("s")
                                        .checked(false);
        for (const auto& result : results) {
            if (result.ok())
                cost.add(result.cost);
            seconds.add(result.seconds);
        }
    }

    bool allOk = true;
    bool allValid = true;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
        const auto& result = results[g];
        allOk = allOk && result.ok();
        std::string certification;
        if (validateResults) {
            const auto check = extract::validateResult(graphs[g], result);
            if (check.ok()) {
                certification = result.ok()
                                    ? ", validated (complete, acyclic, "
                                      "cost certified)"
                                    : ", validated";
            } else {
                allValid = false;
                certification = ", INVALID: " + check.message;
            }
        }
        if (graphs.size() > 1) {
            std::printf("%s: %s: %s, cost %.6g, %.3fs%s\n",
                        inputs[g].c_str(), extractors[g]->name().c_str(),
                        extract::toString(result.status), result.cost,
                        result.seconds, certification.c_str());
        } else {
            std::printf("%s: %s, cost %.6g, %.3fs%s\n",
                        extractors[g]->name().c_str(),
                        extract::toString(result.status), result.cost,
                        result.seconds, certification.c_str());
        }
    }

    if (!output.empty() && results.front().ok()) {
        const auto& result = results.front();
        const eg::EGraph& graph = graphs.front();
        util::Json choices = util::Json::makeObject();
        for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
            if (result.selection.chosen(cls)) {
                choices.set(std::to_string(cls),
                            static_cast<double>(
                                result.selection.choice[cls]));
            }
        }
        util::Json doc = util::Json::makeObject();
        doc.set("extractor", extractors.front()->name());
        doc.set("status", extract::toString(result.status));
        doc.set("cost", result.cost);
        doc.set("seconds", result.seconds);
        doc.set("choices", std::move(choices));
        if (!util::writeFile(output, doc.dumpPretty())) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         output.c_str());
            return 1;
        }
    }
    return allOk && allValid ? 0 : 1;
}
