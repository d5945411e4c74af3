#include "obs/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "obs/check_telemetry.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::obs {

namespace {

struct CliState
{
    std::mutex mutex;
    std::string traceOut;
    std::string metricsOut;
    std::string profileOut;
    bool hooksRegistered = false;
    std::terminate_handler previousTerminate = nullptr;
};

CliState&
cliState()
{
    static CliState state;
    return state;
}

void
flushAtExit()
{
    flushCliTelemetry();
}

/**
 * std::terminate runs for uncaught exceptions and std::terminate()
 * calls, where atexit handlers never fire: flush whatever telemetry is
 * buffered so --trace-out/--metrics-out/--report-out files are valid
 * JSON snapshots of the aborted run, then chain to the previous handler
 * (which normally calls abort()).
 */
[[noreturn]] void
flushOnTerminate()
{
    flushCliTelemetry();
    const std::terminate_handler previous = [] {
        CliState& state = cliState();
        std::lock_guard<std::mutex> lock(state.mutex);
        return state.previousTerminate;
    }();
    if (previous)
        previous();
    std::abort();
}

} // namespace

void
installTelemetryExitHooks()
{
    CliState& state = cliState();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.hooksRegistered)
        return;
    std::atexit(flushAtExit);
    state.previousTerminate = std::set_terminate(flushOnTerminate);
    state.hooksRegistered = true;
}

std::string
toolNameFromArgv0(const char* argv0, const char* fallback)
{
    if (argv0 == nullptr || *argv0 == '\0')
        return fallback;
    const std::string path(argv0);
    const std::size_t slash = path.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return base.empty() ? std::string(fallback) : base;
}

void
installCliTelemetry(const util::Args& args, const char* tool)
{
    installCheckTelemetry();

    const std::string traceOut = args.getString("trace-out", "");
    const std::string metricsOut = args.getString("metrics-out", "");

    // A malformed or negative value is reported by reportUnknownFlags.
    const std::size_t threads = args.getCount("threads", 0);
    if (!util::ThreadPool::onWorkerThread()) {
        // 0 = auto (hardware concurrency); the pool clamps internally.
        const std::size_t size = util::ThreadPool::setGlobalThreads(threads);
        gauge("threads").set(static_cast<double>(size));
    }

    // Force the registry singletons into existence now, so their static
    // storage outlives the atexit flush handler registered below.
    counter("obs.cli_installs").add(1);

    const std::string reportOut = args.getString("report-out", "");
    if (!reportOut.empty())
        Report::install(tool ? tool : "unknown", reportOut);

    // --profile turns per-op attribution on; --profile-out implies it
    // (no point writing an empty flamegraph) and names the collapsed-
    // stack file written at exit/terminate.
    const std::string profileOut = args.getString("profile-out", "");
    const std::size_t profileStride = args.getCount("profile-stride", 1);
    if (args.getBool("profile", false) || !profileOut.empty())
        Profiler::instance().enable(profileStride);

    {
        CliState& state = cliState();
        std::lock_guard<std::mutex> lock(state.mutex);
        state.traceOut = traceOut;
        state.metricsOut = metricsOut;
        state.profileOut = profileOut;
        if (!traceOut.empty())
            TraceSession::instance().start();
    }
    if (!traceOut.empty() || !metricsOut.empty() || !reportOut.empty() ||
        !profileOut.empty())
        installTelemetryExitHooks();
}

bool
flushCliTelemetry()
{
    std::string traceOut;
    std::string metricsOut;
    std::string profileOut;
    {
        CliState& state = cliState();
        std::lock_guard<std::mutex> lock(state.mutex);
        traceOut = state.traceOut;
        metricsOut = state.metricsOut;
        profileOut = state.profileOut;
    }
    bool ok = true;
    if (!traceOut.empty()) {
        TraceSession::instance().stop();
        if (!TraceSession::instance().writeTo(traceOut)) {
            std::fprintf(stderr, "smoothe: cannot write trace file %s\n",
                         traceOut.c_str());
            ok = false;
        }
    }
    if (!metricsOut.empty() && !writeMetricsFile(metricsOut)) {
        std::fprintf(stderr, "smoothe: cannot write metrics file %s\n",
                     metricsOut.c_str());
        ok = false;
    }
    // Profiler output is attached/written whenever data exists — the
    // profiler may have been enabled programmatically (benches) rather
    // than via --profile, and it may already be disabled again.
    if (Profiler::instance().hasData()) {
        if (Report* report = Report::current())
            report->setProfile(Profiler::instance().toJson());
        if (!profileOut.empty() &&
            !util::writeFile(profileOut, Profiler::instance().toFolded())) {
            std::fprintf(stderr, "smoothe: cannot write profile file %s\n",
                         profileOut.c_str());
            ok = false;
        }
    }
    if (!Report::flushCurrent()) {
        std::fprintf(stderr, "smoothe: cannot write report file\n");
        ok = false;
    }
    return ok;
}

std::size_t
reportUnknownFlags(const util::Args& args, const char* program)
{
    const std::vector<std::string> unknown = args.unrecognized();
    for (const std::string& name : unknown)
        std::fprintf(stderr, "smoothe: %s: unrecognized flag --%s\n",
                     program, name.c_str());
    const std::vector<std::string> malformed = args.malformed();
    for (const std::string& name : malformed)
        std::fprintf(stderr,
                     "smoothe: %s: malformed value '%s' for --%s\n",
                     program, args.getString(name, "").c_str(),
                     name.c_str());
    return unknown.size() + malformed.size();
}

} // namespace smoothe::obs
