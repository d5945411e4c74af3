/**
 * @file
 * Project-wide contract macros: always-on checks, internal invariant
 * assertions, and debug-only deep checks.
 *
 * Three tiers (see DESIGN.md "Correctness tooling & static analysis"):
 *
 *  - SMOOTHE_CHECK(cond, fmt, ...)   always compiled; guards external
 *    inputs and API preconditions. Failure is recoverable in Log mode.
 *  - SMOOTHE_ASSERT(cond, fmt, ...)  always compiled; guards internal
 *    invariants whose violation means the library itself is wrong.
 *  - SMOOTHE_DCHECK(cond, fmt, ...)  compiled only in Debug builds or
 *    when the SMOOTHE_DEBUG_INVARIANTS CMake option is ON; guards hot
 *    paths and triggers the deep structural validators.
 *
 * The printf-style message is optional and formatted only on failure. A
 * failure is printed to stderr as one `smoothe: <TIER> failed at` line
 * and handed to the installed ViolationObserver, if any
 * (obs::installCheckTelemetry(), run by every CLI tool via
 * installCliTelemetry, counts it in `check.failures`), and then either
 * aborts (default), throws check::ContractViolation, or merely logs,
 * depending on the process-wide FailureMode (settable programmatically or
 * via the SMOOTHE_CHECK_MODE=abort|throw|log environment variable).
 *
 * This module deliberately depends on nothing but the standard library
 * so the lowest layers (util, tensor) can use the macros without a
 * dependency cycle; telemetry is attached from above via the observer.
 *
 * SMOOTHE_DCHECK_OK / SMOOTHE_CHECK_OK adapt the deep validators, which
 * return std::optional<std::string> (nullopt = healthy), to the same
 * failure pipeline.
 *
 * Replaces bare assert() everywhere in the library: assert() vanishes
 * under NDEBUG, turning corrupted state into undefined behavior exactly
 * in the builds users run; contracts keep the cheap tiers on.
 */

#ifndef SMOOTHE_CHECK_CONTRACTS_HPP
#define SMOOTHE_CHECK_CONTRACTS_HPP

#include <optional>
#include <stdexcept>
#include <string>

namespace smoothe::check {

/** What a failed contract does after it is printed and counted. */
enum class FailureMode {
    Abort, ///< flush stdio, std::abort() (default; best for tools/CI)
    Throw, ///< throw ContractViolation (tests, embedders)
    Log,   ///< print and continue (CHECK only; ASSERT still aborts)
};

/** Thrown by failed contracts in FailureMode::Throw. */
class ContractViolation : public std::logic_error
{
  public:
    ContractViolation(std::string what, std::string expression,
                      const char* file, int line)
        : std::logic_error(std::move(what)),
          expression_(std::move(expression)), file_(file), line_(line)
    {}

    const std::string& expression() const { return expression_; }
    const char* file() const { return file_; }
    int line() const { return line_; }

  private:
    std::string expression_;
    const char* file_;
    int line_;
};

/** Everything known about one failed contract, for observers. */
struct ViolationInfo
{
    const char* tier;       ///< "CHECK", "ASSERT", or "DCHECK"
    const char* expression; ///< stringified condition
    const char* file;
    int line;
    const char* message;    ///< formatted user message, "" when none
};

/** Observer invoked on every contract failure, after the stderr line
 *  and before abort/throw. */
using ViolationObserver = void (*)(const ViolationInfo&);

/**
 * Installs the process-wide violation observer; nullptr removes it.
 * Returns the previous observer so callers can chain or restore it.
 * obs::installCheckTelemetry() is the standard observer (metrics).
 */
ViolationObserver setViolationObserver(ViolationObserver observer);

/** The current process-wide failure mode. */
FailureMode failureMode();

/**
 * Sets the failure mode. The initial mode is Abort unless the
 * SMOOTHE_CHECK_MODE environment variable selects another.
 */
void setFailureMode(FailureMode mode);

/** RAII failure-mode override for tests. */
class ScopedFailureMode
{
  public:
    explicit ScopedFailureMode(FailureMode mode)
        : previous_(failureMode())
    {
        setFailureMode(mode);
    }
    ~ScopedFailureMode() { setFailureMode(previous_); }
    ScopedFailureMode(const ScopedFailureMode&) = delete;
    ScopedFailureMode& operator=(const ScopedFailureMode&) = delete;

  private:
    FailureMode previous_;
};

namespace detail {

/**
 * Reports a failed contract: formats, logs, counts, then aborts or
 * throws per the failure mode. Returns only in FailureMode::Log (and
 * only for the "CHECK" tier; "ASSERT"/"DCHECK" always abort or throw).
 */
void fail(const char* tier, const char* expression, const char* file,
          int line, const char* format, ...)
    __attribute__((format(printf, 5, 6)));

/** fail() for validators: message is the validator's error string. */
void failValidator(const char* tier, const char* expression,
                   const char* file, int line, const std::string& error);

} // namespace detail

} // namespace smoothe::check

// Without a message the macros pass "" as the printf format; silence
// -Wformat-zero-length (an error under SMOOTHE_WERROR) around the call.
#if defined(__GNUC__)
#define SMOOTHE_CHECK_FMT_PUSH_                                           \
    _Pragma("GCC diagnostic push")                                        \
    _Pragma("GCC diagnostic ignored \"-Wformat-zero-length\"")
#define SMOOTHE_CHECK_FMT_POP_ _Pragma("GCC diagnostic pop")
#else
#define SMOOTHE_CHECK_FMT_PUSH_
#define SMOOTHE_CHECK_FMT_POP_
#endif

/** Always-on precondition / external-input check. */
#define SMOOTHE_CHECK(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) {                                                    \
            SMOOTHE_CHECK_FMT_PUSH_                                       \
            ::smoothe::check::detail::fail("CHECK", #cond, __FILE__,      \
                                           __LINE__, "" __VA_ARGS__);     \
            SMOOTHE_CHECK_FMT_POP_                                        \
        }                                                                 \
    } while (0)

/** Always-on internal invariant assertion. */
#define SMOOTHE_ASSERT(cond, ...)                                         \
    do {                                                                  \
        if (!(cond)) {                                                    \
            SMOOTHE_CHECK_FMT_PUSH_                                       \
            ::smoothe::check::detail::fail("ASSERT", #cond, __FILE__,     \
                                           __LINE__, "" __VA_ARGS__);     \
            SMOOTHE_CHECK_FMT_POP_                                        \
        }                                                                 \
    } while (0)

/**
 * Adapter for deep validators returning std::optional<std::string>:
 * fails (always-on) when the validator reports a problem.
 */
#define SMOOTHE_CHECK_OK(expr)                                            \
    do {                                                                  \
        if (const auto smoothe_check_err_ = (expr)) {                     \
            ::smoothe::check::detail::failValidator(                      \
                "CHECK", #expr, __FILE__, __LINE__, *smoothe_check_err_); \
        }                                                                 \
    } while (0)

#if defined(SMOOTHE_DEBUG_INVARIANTS) || !defined(NDEBUG)
#define SMOOTHE_INVARIANTS_ENABLED 1
#else
#define SMOOTHE_INVARIANTS_ENABLED 0
#endif

#if SMOOTHE_INVARIANTS_ENABLED
/** Debug-only invariant check (hot paths, deep validators). */
#define SMOOTHE_DCHECK(cond, ...)                                         \
    do {                                                                  \
        if (!(cond)) {                                                    \
            SMOOTHE_CHECK_FMT_PUSH_                                       \
            ::smoothe::check::detail::fail("DCHECK", #cond, __FILE__,     \
                                           __LINE__, "" __VA_ARGS__);     \
            SMOOTHE_CHECK_FMT_POP_                                        \
        }                                                                 \
    } while (0)

/** Debug-only validator adapter (see SMOOTHE_CHECK_OK). */
#define SMOOTHE_DCHECK_OK(expr)                                           \
    do {                                                                  \
        if (const auto smoothe_check_err_ = (expr)) {                     \
            ::smoothe::check::detail::failValidator("DCHECK", #expr,      \
                                                    __FILE__, __LINE__,   \
                                                    *smoothe_check_err_); \
        }                                                                 \
    } while (0)
#else
// Compiled out: the condition is parsed but never evaluated, so
// variables it mentions stay "used" for warning purposes.
#define SMOOTHE_DCHECK(cond, ...)                                         \
    do {                                                                  \
        if (false && (cond)) {                                            \
        }                                                                 \
    } while (0)

#define SMOOTHE_DCHECK_OK(expr)                                           \
    do {                                                                  \
        if (false) {                                                      \
            (void)(expr);                                                 \
        }                                                                 \
    } while (0)
#endif

#endif // SMOOTHE_CHECK_CONTRACTS_HPP
