/**
 * @file
 * Shared command-line surface for telemetry and execution: every tool and
 * bench binary gains `--trace-out FILE`, `--metrics-out FILE`,
 * `--report-out FILE`, `--threads N`, and the kernel-profiler trio
 * `--profile`, `--profile-out FILE` (collapsed stacks for flamegraph
 * tooling), and `--profile-stride N` by routing its parsed util::Args
 * through installCliTelemetry(). Trace, metrics, report, and profile files are
 * flushed automatically at process exit — and from a std::terminate
 * handler, so the files are valid even when a tool aborts mid-run — so
 * harness binaries need no explicit teardown.
 */

#ifndef SMOOTHE_OBS_CLI_HPP
#define SMOOTHE_OBS_CLI_HPP

#include <cstddef>
#include <string>

namespace smoothe::util {
class Args;
} // namespace smoothe::util

namespace smoothe::obs {

/**
 * Reads the telemetry flags from parsed args and applies them: installs
 * the contract-failure counters (obs/check_telemetry.hpp), starts a trace
 * session when --trace-out is given, installs the process-wide
 * obs::Report when --report-out is given (named after
 * `tool`, which is usually the argv[0] basename), resizes the
 * process-wide thread pool from --threads (0 or absent = auto, i.e.
 * hardware concurrency) recording the result in the "threads" gauge, and
 * registers atexit + std::terminate hooks that write the trace, metrics,
 * and report files even on a mid-run abort.
 * Safe to call once per process; later calls override the output paths.
 */
void installCliTelemetry(const util::Args& args,
                         const char* tool = nullptr);

/**
 * Writes any configured --trace-out / --metrics-out / --report-out files
 * immediately (also runs at exit and on terminate). Returns false if a
 * write failed.
 */
bool flushCliTelemetry();

/**
 * Registers the atexit + std::terminate flush hooks once per process
 * (installCliTelemetry does this when any output file is configured;
 * callers that install a report through Report::install directly — e.g.
 * the bench harness default BENCH_<tool>.json — call it themselves).
 */
void installTelemetryExitHooks();

/** Strips the directory part of argv[0] ("./build/bench/bench_x" ->
 *  "bench_x"); returns `fallback` for null/empty argv. */
std::string toolNameFromArgv0(const char* argv0, const char* fallback);

/**
 * Prints an error to stderr for every flag the program never queried and
 * every numeric flag whose value did not parse (call after all known
 * flags — including the telemetry ones — have been read) and returns how
 * many there were. Callers treat a nonzero return as a usage error and
 * exit with status 2.
 */
std::size_t reportUnknownFlags(const util::Args& args, const char* program);

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_CLI_HPP
