/**
 * @file
 * End-to-end smoke test of the telemetry surface: runs the real
 * egraph_gen and smoothe_extract binaries (and bench_anytime_eqsat, whose
 * warm epochs record and compile a fresh Program each, and
 * bench_fig9_sampling, which prints Figure 9 from the per-iteration
 * convergence trajectory, bench_fig8_profiling, which prints
 * Figure 8 from the per-phase totals, bench_fig6_ablation, which
 * times the matrix exponential on whole-graph matrices at both SIMD
 * levels, and bench_fig5_mlp, whose MLP training and composite cost
 * replay Mul/Relu/MatMul and the one-stage elementwise ops compiled,
 * and bench_fig7_seeds, which samples 1 to 64 seeds per iteration on a
 * cyclic graph, and bench_extra_ablations, whose NOTEARS lambda sweep
 * runs the matrix exponential's Taylor term steps on a cyclic
 * tensat-style graph, and bench_threads_scaling, which runs the sampling
 * stage at pool sizes 1, 2 and 4 and fails when the selections differ)
 * with --trace-out, --metrics-out,
 * --report-out and --profile-out on tiny inputs and checks that every
 * file they write parses: the trace as Chrome trace-event JSON covering
 * the optimizer phases, the metrics as a flat object with the headline
 * counters, each report against the report schema (with profiler kernel
 * attribution when profiling, one smoothe.convergence row per iteration,
 * and a sampling phase in Figure 8's), and the collapsed-stack profile
 * line by line. SmoothE runs under all three propagation assumptions.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "util/json.hpp"

namespace {

/**
 * Locates a built binary relative to the test executable's directory.
 * @param subdir the build-tree directory holding it ("tools", "bench")
 */
std::string
binaryPath(const std::string& name, const std::string& subdir = "tools")
{
    for (const char* root : {"../", "./build/", "build/"}) {
        const std::string path = root + subdir + "/" + name;
        if (FILE* f = std::fopen(path.c_str(), "rb")) {
            std::fclose(f);
            return path;
        }
    }
    return "";
}

int
runCommand(const std::string& command)
{
    const int status = std::system((command + " > /dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Reads and parses a JSON file the tool wrote. */
smoothe::util::Json
readJson(const std::string& path)
{
    const auto text = smoothe::util::readFile(path);
    EXPECT_TRUE(text.has_value()) << "missing " << path;
    if (!text)
        return {};
    auto doc = smoothe::util::Json::parse(*text);
    EXPECT_TRUE(doc.has_value()) << path << " is not JSON";
    return doc ? *doc : smoothe::util::Json();
}

/**
 * True for a collapsed-stack row "smoothe;<forward|backward>;<kernel>
 * <micros>": the kernel holds no ';' or ' ', and micros is all digits.
 * Hand-written because GCC 12 under ASan warns inside <regex> with
 * -Wmaybe-uninitialized, which breaks -Werror sanitizer builds.
 */
bool
isFoldedRow(const std::string& row)
{
    for (const std::string prefix : {"smoothe;forward;", "smoothe;backward;"}) {
        if (row.rfind(prefix, 0) != 0)
            continue;
        const std::size_t space = row.find(' ', prefix.size());
        if (space == std::string::npos || space == prefix.size() ||
            row.find(';', prefix.size()) < space)
            return false;
        const std::string micros = row.substr(space + 1);
        return !micros.empty() &&
               micros.find_first_not_of("0123456789") == std::string::npos;
    }
    return false;
}

/** Checks a trace file's shape; returns the names of its complete spans. */
std::set<std::string>
checkTrace(const std::string& path)
{
    std::set<std::string> spanNames;
    const smoothe::util::Json doc = readJson(path);
    const smoothe::util::Json* events = doc.find("traceEvents");
    EXPECT_TRUE(events != nullptr && events->isArray()) << path;
    if (events == nullptr || !events->isArray())
        return spanNames;
    for (const smoothe::util::Json& event : events->asArray()) {
        const smoothe::util::Json* ph = event.find("ph");
        const smoothe::util::Json* name = event.find("name");
        EXPECT_TRUE(ph != nullptr && name != nullptr) << path;
        if (ph != nullptr && name != nullptr && ph->asString() == "X") {
            const smoothe::util::Json* dur = event.find("dur");
            EXPECT_TRUE(dur != nullptr && dur->asNumber() >= 0.0) << path;
            spanNames.insert(name->asString());
        }
    }
    return spanNames;
}

/** Checks that a report file passes schema validation; returns it. */
smoothe::util::Json
checkReport(const std::string& path)
{
    smoothe::util::Json doc = readJson(path);
    std::string error;
    EXPECT_TRUE(smoothe::obs::validateReportJson(doc, &error))
        << path << ": " << error;
    return doc;
}

} // namespace

TEST(SmokeObservability, TraceAndMetricsFilesAreValid)
{
    const std::string gen = binaryPath("egraph_gen");
    const std::string extract = binaryPath("smoothe_extract");
    if (gen.empty() || extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    ASSERT_EQ(runCommand(gen + " --family maxsat --scale 0.05 --seed 7 "
                               "--out /tmp"),
              0);

    const std::string trace = "/tmp/smoothe_obs_trace.json";
    const std::string metrics = "/tmp/smoothe_obs_metrics.json";
    const std::string report = "/tmp/smoothe_obs_report.json";
    ASSERT_EQ(runCommand(extract +
                         " --input /tmp/maxsat_0.json --extractor smoothe "
                         "--max-iters 30 --seeds 4 --time-limit 20 "
                         "--profile --trace-out " + trace +
                         " --metrics-out " + metrics + " --report-out " +
                         report),
              0);

    // Trace: optimizer phase spans present.
    const std::set<std::string> spanNames = checkTrace(trace);
    for (const char* phase :
         {"softmax", "propagate", "penalty", "adam", "sampling",
          "iteration"}) {
        EXPECT_TRUE(spanNames.count(phase)) << "missing span: " << phase;
    }

    // Metrics: a flat object with nonzero headline numbers.
    const smoothe::util::Json metricsDoc = readJson(metrics);
    ASSERT_TRUE(metricsDoc.isObject());
    for (const char* name :
         {"smoothe.iterations", "tape.nodes", "sampler.valid_rate"}) {
        const smoothe::util::Json* value = metricsDoc.find(name);
        ASSERT_NE(value, nullptr) << "missing metric: " << name;
        EXPECT_GT(value->asNumber(), 0.0) << name;
    }

    // Report: valid, with per-phase totals and the softmax kernel
    // attributed by the profiler.
    const smoothe::util::Json reportDoc = checkReport(report);
    const smoothe::util::Json* phases = reportDoc.find("phases");
    ASSERT_NE(phases, nullptr);
    const smoothe::util::Json* loss = phases->find("loss");
    ASSERT_NE(loss, nullptr);
    EXPECT_GT(loss->find("count")->asNumber(), 0.0);
    const smoothe::util::Json* profile = reportDoc.find("profile");
    ASSERT_NE(profile, nullptr);
    bool softmaxCalled = false;
    for (const auto& [name, entry] :
         profile->find("kernels")->asObject()) {
        if (name.rfind("forward.segment_softmax", 0) == 0 &&
            entry.find("calls")->asNumber() > 0.0)
            softmaxCalled = true;
    }
    EXPECT_TRUE(softmaxCalled);

    std::remove(trace.c_str());
    std::remove(metrics.c_str());
    std::remove(report.c_str());
}

TEST(SmokeObservability, NonDefaultAssumptionsProfileThePropagation)
{
    const std::string gen = binaryPath("egraph_gen");
    const std::string extract = binaryPath("smoothe_extract");
    if (gen.empty() || extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    const std::string dir = "/tmp/smoothe_obs_assumptions";
    ASSERT_EQ(runCommand("mkdir -p " + dir), 0);
    ASSERT_EQ(runCommand(gen + " --family maxsat --scale 0.05 --seed 7 "
                               "--out " + dir),
              0);
    // The default hybrid runs in the tests above; these put the fused
    // propagation's product-only and max-only paths under the same
    // telemetry (and, in sanitizer builds, under ASan/UBSan).
    for (const char* assumption : {"independent", "correlated"}) {
        SCOPED_TRACE(assumption);
        const std::string prefix = dir + "/" + assumption;
        ASSERT_EQ(runCommand(extract + " --input " + dir +
                             "/maxsat_0.json --extractor smoothe"
                             " --max-iters 20 --seeds 4 --time-limit 20"
                             " --assumption " + assumption +
                             " --profile --trace-out " + prefix +
                             "_trace.json --metrics-out " + prefix +
                             "_metrics.json --report-out " + prefix +
                             "_report.json"),
                  0);
        checkTrace(prefix + "_trace.json");
        EXPECT_TRUE(readJson(prefix + "_metrics.json").isObject());
        const smoothe::util::Json report = checkReport(prefix + "_report.json");
        const smoothe::util::Json* profile = report.find("profile");
        ASSERT_NE(profile, nullptr);
        bool forward = false;
        bool backward = false;
        for (const auto& [name, entry] :
             profile->find("kernels")->asObject()) {
            const bool called = entry.find("calls")->asNumber() > 0.0;
            if (name.rfind("forward.propagate", 0) == 0 && called)
                forward = true;
            if (name == "backward.propagate" && called)
                backward = true;
        }
        EXPECT_TRUE(forward) << "no forward.propagate* profile row";
        EXPECT_TRUE(backward) << "no backward.propagate profile row";
    }
}

TEST(SmokeObservability, EveryToolWritesParseableTelemetry)
{
    const std::string gen = binaryPath("egraph_gen");
    const std::string extract = binaryPath("smoothe_extract");
    const std::string anytime = binaryPath("bench_anytime_eqsat", "bench");
    const std::string fig9 = binaryPath("bench_fig9_sampling", "bench");
    const std::string fig8 = binaryPath("bench_fig8_profiling", "bench");
    const std::string fig6 = binaryPath("bench_fig6_ablation", "bench");
    const std::string fig5 = binaryPath("bench_fig5_mlp", "bench");
    const std::string fig7 = binaryPath("bench_fig7_seeds", "bench");
    const std::string ablations =
        binaryPath("bench_extra_ablations", "bench");
    const std::string scaling = binaryPath("bench_threads_scaling", "bench");
    if (gen.empty() || extract.empty() || anytime.empty() || fig9.empty() ||
        fig8.empty() || fig6.empty() || fig5.empty() || fig7.empty() ||
        ablations.empty() || scaling.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    const std::string dir = "/tmp/smoothe_obs_tools";
    ASSERT_EQ(runCommand("mkdir -p " + dir), 0);
    const auto telemetry = [&](const std::string& tag) {
        return " --trace-out " + dir + "/" + tag + "_trace.json" +
               " --metrics-out " + dir + "/" + tag + "_metrics.json" +
               " --report-out " + dir + "/" + tag + "_report.json";
    };
    const std::string input = dir + "/maxsat_0.json";
    ASSERT_EQ(runCommand(gen + " --family maxsat --scale 0.05 --seed 7 "
                               "--out " + dir + telemetry("gen")),
              0);
    ASSERT_EQ(runCommand(extract + " --input " + input +
                         " --extractor smoothe --max-iters 20 --seeds 2"
                         " --time-limit 20" + telemetry("smoothe")),
              0);
    ASSERT_EQ(runCommand(extract + " --input " + input +
                         " --extractor heuristic+" + telemetry("heur")),
              0);
    ASSERT_EQ(runCommand(anytime + " --quick" + telemetry("anytime")), 0);
    constexpr std::size_t kFig9Iters = 5;
    ASSERT_EQ(runCommand(fig9 + " --quick --iters " +
                         std::to_string(kFig9Iters) + telemetry("fig9")),
              0);
    ASSERT_EQ(runCommand(fig8 + " --scale 0.05" + telemetry("fig8")), 0);
    // Figure 6 runs tr_expm on whole-graph matrices at SIMD levels
    // scalar and avx2.
    ASSERT_EQ(runCommand(fig6 + " --scale 0.05" + telemetry("fig6")), 0);
    // Figure 5 trains an MLP and extracts under the composite cost.
    ASSERT_EQ(runCommand(fig5 + " --quick --time-limit 0.5" +
                         telemetry("fig5")),
              0);
    // Figure 7 samples B = 1, 2, ..., 64 seeds per iteration on rover's
    // cyclic box_3, so the sampler's repair runs at every batch size.
    ASSERT_EQ(runCommand(fig7 + " --quick" + telemetry("fig7")), 0);
    // The ablations' lambda sweep trains with the NOTEARS penalty on a
    // cyclic tensat-style graph, so tr_expm runs inside SmoothE.
    ASSERT_EQ(runCommand(ablations + " --quick" + telemetry("ablations")),
              0);
    // One extraction at pool sizes 1, 2 and 4, each seed's sampler on a
    // pool thread; exit 1 when the selections differ across sizes.
    ASSERT_EQ(runCommand(scaling + " --quick --max-threads 4" +
                         telemetry("scaling")),
              0);
    for (const char* tag :
         {"gen", "smoothe", "heur", "anytime", "fig9", "fig8", "fig6", "fig5",
          "fig7", "ablations", "scaling"}) {
        SCOPED_TRACE(tag);
        const std::string prefix = dir + "/" + tag;
        checkTrace(prefix + "_trace.json");
        EXPECT_TRUE(readJson(prefix + "_metrics.json").isObject());
        const smoothe::util::Json report = checkReport(prefix + "_report.json");
        EXPECT_EQ(smoothe::obs::reportSchemaVersion(report),
                  smoothe::obs::kReportSchemaVersion);
    }

    // Figure 5's replays ran their backward passes.
    const smoothe::util::Json fig5Metrics =
        readJson(dir + "/fig5_metrics.json");
    const smoothe::util::Json* fig5Backward =
        fig5Metrics.find("tape.backward.calls");
    ASSERT_NE(fig5Backward, nullptr);
    EXPECT_GT(fig5Backward->asNumber(), 0.0);

    // Figure 7's sweep drew samples.
    const smoothe::util::Json fig7Metrics =
        readJson(dir + "/fig7_metrics.json");
    const smoothe::util::Json* fig7Samples =
        fig7Metrics.find("sampler.samples");
    ASSERT_NE(fig7Samples, nullptr);
    EXPECT_GT(fig7Samples->asNumber(), 0.0);

    // The thread-scaling sweep drew samples at every pool size.
    const smoothe::util::Json scalingMetrics =
        readJson(dir + "/scaling_metrics.json");
    const smoothe::util::Json* scalingSamples =
        scalingMetrics.find("sampler.samples");
    ASSERT_NE(scalingSamples, nullptr);
    EXPECT_GT(scalingSamples->asNumber(), 0.0);

    // The lambda sweep summed Taylor terms of the penalty's exponential.
    const smoothe::util::Json ablationsMetrics =
        readJson(dir + "/ablations_metrics.json");
    const smoothe::util::Json* matexpTerms =
        ablationsMetrics.find("kernel.matexp.terms");
    ASSERT_NE(matexpTerms, nullptr);
    EXPECT_GT(matexpTerms->asNumber(), 0.0);

    // Figure 8's shares come from the per-phase totals, sampling included.
    const smoothe::util::Json fig8Report =
        readJson(dir + "/fig8_report.json");
    const smoothe::util::Json* fig8Phases = fig8Report.find("phases");
    ASSERT_NE(fig8Phases, nullptr);
    const smoothe::util::Json* sampling = fig8Phases->find("sampling");
    ASSERT_NE(sampling, nullptr);
    EXPECT_GT(sampling->find("count")->asNumber(), 0.0);

    // Figure 9's trajectory: every run records one convergence row per
    // iteration (its patience never runs out), with the per-iteration
    // sampled cost and the NOTEARS penalty as columns.
    const smoothe::util::Json fig9Report =
        readJson(dir + "/fig9_report.json");
    const smoothe::util::Json* series = fig9Report.find("series");
    ASSERT_NE(series, nullptr);
    const smoothe::util::Json* convergence =
        series->find("smoothe.convergence");
    ASSERT_NE(convergence, nullptr);
    std::vector<std::string> columns;
    for (const smoothe::util::Json& column :
         convergence->find("columns")->asArray())
        columns.push_back(column.asString());
    const std::vector<std::string> expected = {
        "run",         "iteration", "loss",        "softCost",
        "sampledCost", "gradNorm",  "wallSeconds", "iterSampledCost",
        "penalty"};
    EXPECT_EQ(columns, expected);
    std::map<double, std::vector<double>> iterationsByRun;
    for (const smoothe::util::Json& row :
         convergence->find("rows")->asArray()) {
        iterationsByRun[row.asArray()[0].asNumber()].push_back(
            row.asArray()[1].asNumber());
    }
    EXPECT_EQ(iterationsByRun.size(), 4u); // Figure 9's four graphs
    for (const auto& [run, iterations] : iterationsByRun) {
        ASSERT_EQ(iterations.size(), kFig9Iters) << "run " << run;
        for (std::size_t i = 0; i < kFig9Iters; ++i)
            EXPECT_EQ(iterations[i], static_cast<double>(i))
                << "run " << run;
    }

    // --profile-out: collapsed stacks, "smoothe;<phase>;<kernel> <us>".
    const std::string folded = dir + "/prof.folded";
    ASSERT_EQ(runCommand(extract + " --input " + input +
                         " --extractor smoothe --max-iters 20 --seeds 2"
                         " --time-limit 20 --profile-out " + folded),
              0);
    const auto text = smoothe::util::readFile(folded);
    ASSERT_TRUE(text.has_value());
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < text->size()) {
        std::size_t end = text->find('\n', start);
        if (end == std::string::npos)
            end = text->size();
        const std::string row = text->substr(start, end - start);
        EXPECT_TRUE(isFoldedRow(row)) << row;
        ++lines;
        start = end + 1;
    }
    EXPECT_GT(lines, 0u);

    ASSERT_EQ(runCommand("rm -rf " + dir), 0);
}

TEST(SmokeObservability, UnknownFlagsAreRejected)
{
    const std::string gen = binaryPath("egraph_gen");
    const std::string extract = binaryPath("smoothe_extract");
    if (gen.empty() || extract.empty())
        GTEST_SKIP() << "tool binaries not found relative to cwd";

    EXPECT_EQ(runCommand(extract +
                         " --input /tmp/maxsat_0.json --extractor smoothe "
                         "--thyme-limit 5"),
              2);
    EXPECT_EQ(runCommand(gen + " --family maxsat --scale 0.05 --out /tmp "
                               "--seeeed 7"),
              2);
}
