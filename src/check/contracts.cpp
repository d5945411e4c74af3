#include "check/contracts.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace smoothe::check {

namespace {

FailureMode
initialMode()
{
    const char* env = std::getenv("SMOOTHE_CHECK_MODE");
    if (env == nullptr)
        return FailureMode::Abort;
    if (std::strcmp(env, "throw") == 0)
        return FailureMode::Throw;
    if (std::strcmp(env, "log") == 0)
        return FailureMode::Log;
    return FailureMode::Abort;
}

std::atomic<FailureMode>&
modeStorage()
{
    static std::atomic<FailureMode> mode{initialMode()};
    return mode;
}

std::atomic<ViolationObserver>&
observerStorage()
{
    static std::atomic<ViolationObserver> observer{nullptr};
    return observer;
}

/** Prints the failure, tells the observer, then aborts/throws/returns
 *  per mode and tier. */
void
dispatch(const char* tier, const char* expression, const char* file,
         int line, const std::string& message)
{
    std::fprintf(stderr, "smoothe: %s failed at %s:%d: %s%s%s\n", tier,
                 file, line, expression, message.empty() ? "" : " — ",
                 message.c_str());
    const ViolationObserver observer =
        observerStorage().load(std::memory_order_acquire);
    if (observer != nullptr)
        observer(ViolationInfo{tier, expression, file, line,
                               message.c_str()});

    // The failure mode guards only its own enum value; no other data is
    // published behind it.
    const FailureMode mode = modeStorage().load(std::memory_order_relaxed);
    // Log mode only downgrades the recoverable tier; a failed ASSERT or
    // DCHECK means internal state is corrupt and continuing is unsafe.
    if (mode == FailureMode::Log && std::strcmp(tier, "CHECK") == 0)
        return;
    std::string what = std::string(tier) + " failed at " + file + ":" +
                       std::to_string(line) + ": " + expression;
    if (!message.empty())
        what += " — " + message;
    if (mode == FailureMode::Throw)
        throw ContractViolation(what, expression, file, line);
    std::fprintf(stderr, "smoothe: fatal: %s\n", what.c_str());
    std::fflush(nullptr);
    std::abort();
}

} // namespace

ViolationObserver
setViolationObserver(ViolationObserver observer)
{
    return observerStorage().exchange(observer, std::memory_order_acq_rel);
}

FailureMode
failureMode()
{
    // Self-contained flag.
    return modeStorage().load(std::memory_order_relaxed);
}

void
setFailureMode(FailureMode mode)
{
    // Self-contained flag.
    modeStorage().store(mode, std::memory_order_relaxed);
}

namespace detail {

void
fail(const char* tier, const char* expression, const char* file, int line,
     const char* format, ...)
{
    char buffer[512];
    buffer[0] = '\0';
    if (format != nullptr && format[0] != '\0') {
        va_list args;
        va_start(args, format);
        std::vsnprintf(buffer, sizeof(buffer), format, args);
        va_end(args);
    }
    dispatch(tier, expression, file, line, buffer);
}

void
failValidator(const char* tier, const char* expression, const char* file,
              int line, const std::string& error)
{
    dispatch(tier, expression, file, line, error);
}

} // namespace detail

} // namespace smoothe::check
