/**
 * @file
 * Shared helpers for the benchmark harness binaries (one per paper table
 * or figure). Each binary accepts --scale, --seed, --time-limit plus the
 * repeat/telemetry surface below, prints paper-style rows, and emits a
 * structured obs::Report (--report-out FILE, defaulting to
 * BENCH_<name>.json in the working directory) conforming to the
 * versioned "smoothe.report" schema; see DESIGN.md's per-experiment
 * index and "Telemetry pipeline".
 */

#ifndef SMOOTHE_BENCH_COMMON_HPP
#define SMOOTHE_BENCH_COMMON_HPP

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "datasets/registry.hpp"
#include "extraction/extractor.hpp"
#include "obs/cli.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace smoothe::bench {

/** Common CLI knobs for all harness binaries. */
struct BenchOptions
{
    double scale = 0.1;        ///< dataset size multiplier
    std::uint64_t seed = 2025; ///< base RNG seed
    double timeLimit = 5.0;    ///< per-extraction budget (seconds)
    std::size_t runs = 3;      ///< repeated stochastic runs (max-diff)
    std::size_t maxGraphs = 4; ///< per-family cap for sweep benches
    std::size_t repeat = 3;    ///< timed repeats per measurement
    std::size_t warmup = 1;    ///< untimed warmup runs per measurement
    bool quick = false;        ///< shrink everything for smoke testing
    std::string tool;          ///< argv[0] basename

    /**
     * Parses the shared harness flags, installs telemetry (--trace-out,
     * --metrics-out, --report-out), and exits with status 2 on any flag
     * nobody understands or any numeric flag whose value does not parse.
     * Benches with private flags read them in read_extra, so those flags
     * get the same checks.
     *
     * Every bench gets a process-wide obs::Report: --report-out FILE
     * names the output explicitly, otherwise it defaults to
     * BENCH_<name>.json (the bench name without its "bench_" prefix) in
     * the working directory, accumulating the repo's bench trajectory.
     * The shared harness options land in the report's run metadata.
     */
    static BenchOptions
    parse(int argc, char** argv,
          const std::function<void(const util::Args&)>& read_extra = {})
    {
        const util::Args args(argc, argv);
        if (read_extra)
            read_extra(args);
        BenchOptions options;
        options.tool = obs::toolNameFromArgv0(
            argc > 0 ? argv[0] : nullptr, "bench");
        options.scale = args.getDouble("scale", options.scale);
        options.seed = static_cast<std::uint64_t>(
            args.getInt("seed", static_cast<std::int64_t>(options.seed)));
        options.timeLimit = args.getDouble("time-limit", options.timeLimit);
        options.runs = args.getCount("runs", options.runs);
        options.maxGraphs = args.getCount("max-graphs", options.maxGraphs);
        options.repeat = static_cast<std::size_t>(std::max<std::int64_t>(
            1,
            args.getInt("repeat",
                        static_cast<std::int64_t>(options.repeat))));
        options.warmup = static_cast<std::size_t>(std::max<std::int64_t>(
            0,
            args.getInt("warmup",
                        static_cast<std::int64_t>(options.warmup))));
        options.quick = args.getBool("quick", false);
        if (options.quick) {
            options.scale *= 0.4;
            // --quick shortens the default limit, not an explicit one.
            if (!args.has("time-limit"))
                options.timeLimit = std::min(options.timeLimit, 2.0);
            options.runs = 1;
            options.maxGraphs = std::min<std::size_t>(options.maxGraphs, 2);
        }
        obs::installCliTelemetry(args, options.tool.c_str());
        if (obs::Report::current() == nullptr) {
            std::string name = options.tool;
            if (name.rfind("bench_", 0) == 0)
                name = name.substr(6);
            obs::Report::install(options.tool, "BENCH_" + name + ".json");
            obs::installTelemetryExitHooks();
        }
        obs::Report& report = *obs::Report::current();
        report.setRun("scale", options.scale);
        report.setRun("seed", options.seed);
        report.setRun("timeLimit", options.timeLimit);
        report.setRun("runs", options.runs);
        report.setRun("repeat", options.repeat);
        report.setRun("warmup", options.warmup);
        report.setRun("quick", options.quick);
        if (obs::reportUnknownFlags(args, argv[0] ? argv[0] : "bench") > 0)
            std::exit(2);
        return options;
    }

    /** Applies the per-family graph cap. */
    template <typename T>
    std::vector<T>
    capGraphs(std::vector<T> graphs) const
    {
        if (maxGraphs > 0 && graphs.size() > maxGraphs)
            graphs.resize(maxGraphs);
        return graphs;
    }
};

/** Summary of a warmup+repeat measurement (seconds per repeat). */
struct RepeatStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t repeats = 0;
    std::vector<double> samples; ///< per-repeat seconds, in run order

    /** "12.3ms ±0.4" style cell for the printed tables. */
    std::string
    cell() const
    {
        return util::formatSeconds(mean) + "s ±" +
               util::formatSeconds(stddev);
    }
};

namespace detail {

/** The report measurement `name` (unit "s"), or nullptr when no report
 *  is installed or `name` is empty. */
inline obs::Measurement*
secondsMeasurement(const std::string& name)
{
    obs::Report* report = obs::Report::current();
    if (report == nullptr || name.empty())
        return nullptr;
    return &report->measurement(name).unit("s");
}

/** Times one call of `fn` into `samples` (and `measurement`, if any). */
template <typename Fn>
void
timeOnce(Fn& fn, std::vector<double>& samples,
         obs::Measurement* measurement)
{
    util::Timer timer;
    fn();
    const double seconds = timer.seconds();
    samples.push_back(seconds);
    if (measurement != nullptr)
        measurement->add(seconds);
}

/** mean/stddev/min/max of per-run wall times. */
inline RepeatStats
summarize(const std::vector<double>& samples)
{
    RepeatStats stats;
    stats.repeats = samples.size();
    stats.samples = samples;
    if (samples.empty())
        return stats;
    double sum = 0.0;
    stats.min = samples.front();
    stats.max = samples.front();
    for (double s : samples) {
        sum += s;
        stats.min = std::min(stats.min, s);
        stats.max = std::max(stats.max, s);
    }
    stats.mean = sum / static_cast<double>(samples.size());
    double sq = 0.0;
    for (double s : samples)
        sq += (s - stats.mean) * (s - stats.mean);
    stats.stddev = std::sqrt(sq / static_cast<double>(samples.size()));
    return stats;
}

} // namespace detail

/**
 * Runs `fn` untimed `warmup` times, then timed `repeats` times, and
 * returns mean/stddev/min/max of the per-run wall time. When a process
 * report is installed and `name` is non-empty, each timed sample is
 * recorded into measurement `name` (unit "s", lower-is-better); the
 * mean/stddev land in the report automatically.
 */
template <typename Fn>
RepeatStats
repeatMeasure(const std::string& name, std::size_t warmup,
              std::size_t repeats, Fn&& fn)
{
    for (std::size_t i = 0; i < warmup; ++i)
        fn();
    obs::Measurement* measurement = detail::secondsMeasurement(name);
    std::vector<double> samples;
    samples.reserve(repeats);
    for (std::size_t i = 0; i < repeats; ++i)
        detail::timeOnce(fn, samples, measurement);
    return detail::summarize(samples);
}

/**
 * repeatMeasure for two functions timed in alternation (a, b, a, b,
 * ...) after `warmup` untimed rounds of both, so a drift in host speed
 * lands on both sides alike: the fair way to compare two nearly equal
 * costs. Samples go to measurements `name_a` and `name_b`.
 */
template <typename FnA, typename FnB>
std::pair<RepeatStats, RepeatStats>
repeatMeasureInterleaved(const std::string& name_a,
                         const std::string& name_b, std::size_t warmup,
                         std::size_t repeats, FnA&& fn_a, FnB&& fn_b)
{
    for (std::size_t i = 0; i < warmup; ++i) {
        fn_a();
        fn_b();
    }
    obs::Measurement* measurementA = detail::secondsMeasurement(name_a);
    obs::Measurement* measurementB = detail::secondsMeasurement(name_b);
    std::vector<double> samplesA;
    std::vector<double> samplesB;
    samplesA.reserve(repeats);
    samplesB.reserve(repeats);
    for (std::size_t i = 0; i < repeats; ++i) {
        detail::timeOnce(fn_a, samplesA, measurementA);
        detail::timeOnce(fn_b, samplesB, measurementB);
    }
    return {detail::summarize(samplesA), detail::summarize(samplesB)};
}

/**
 * Median over pairs i of num[i] / den[i], the pairs being the samples
 * repeatMeasureInterleaved took side by side; pairs with den[i] <= 0
 * are skipped, and no pair left gives 0. A host slowdown during one
 * pair then shifts one ratio instead of the estimate.
 */
inline double
medianPairRatio(const std::vector<double>& num,
                const std::vector<double>& den)
{
    std::vector<double> ratios;
    for (std::size_t i = 0; i < std::min(num.size(), den.size()); ++i) {
        if (den[i] > 0.0)
            ratios.push_back(num[i] / den[i]);
    }
    if (ratios.empty())
        return 0.0;
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    return ratios.size() % 2 ? ratios[mid]
                             : 0.5 * (ratios[mid - 1] + ratios[mid]);
}

/** Overload using the harness --warmup/--repeat options. */
template <typename Fn>
RepeatStats
repeatMeasure(const std::string& name, const BenchOptions& options,
              Fn&& fn)
{
    return repeatMeasure(name, options.warmup, options.repeat,
                         static_cast<Fn&&>(fn));
}

/**
 * Records a scalar into the process report when one is installed (the
 * bench binaries always have one); a no-op otherwise. Returns the
 * measurement for chained configuration, or nullptr.
 */
inline obs::Measurement*
reportScalar(const std::string& name, double value,
             const std::string& unit = "")
{
    obs::Report* report = obs::Report::current();
    if (report == nullptr)
        return nullptr;
    obs::Measurement& measurement = report->measurement(name);
    if (!unit.empty())
        measurement.unit(unit);
    measurement.add(value);
    return &measurement;
}

/** Returns the named measurement of the process report (created on
 *  first use), or nullptr when no report is installed. */
inline obs::Measurement*
findMeasurement(const std::string& name)
{
    obs::Report* report = obs::Report::current();
    return report == nullptr ? nullptr : &report->measurement(name);
}

/** Geometric mean of positive values (0 when empty). */
inline double
geometricMean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(std::max(v, 1e-12));
    return std::exp(logSum / static_cast<double>(values.size()));
}

/** Normalized cost increase vs an oracle: (cost - oracle) / oracle. */
inline double
normalizedIncrease(double cost, double oracle)
{
    if (oracle <= 0.0)
        return 0.0;
    return (cost - oracle) / oracle;
}

/** Formats "worst / avg." cells like the paper's tables. */
inline std::string
worstAvgCell(double worst, double avg, std::size_t fails)
{
    std::string cell = util::formatPercent(std::max(0.0, worst)) + " / " +
                       util::formatPercent(std::max(0.0, avg));
    if (fails > 0)
        cell = "Failed(" + std::to_string(fails) + ") / " +
               util::formatPercent(std::max(0.0, avg));
    return cell;
}

} // namespace smoothe::bench

#endif // SMOOTHE_BENCH_COMMON_HPP
