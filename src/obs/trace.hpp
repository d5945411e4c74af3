/**
 * @file
 * Chrome trace-event recording: RAII spans and counter events that load
 * into chrome://tracing or Perfetto.
 *
 * A single process-wide TraceSession collects events while enabled.
 * Spans emit "complete" events (ph "X" with pid/tid/ts/dur); counter
 * events (ph "C") chart scalar series like loss curves over time. When
 * the session is disabled — the default — a span costs one relaxed
 * atomic load and a branch, and allocates nothing.
 */

#ifndef SMOOTHE_OBS_TRACE_HPP
#define SMOOTHE_OBS_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace smoothe::util {
class Json;
} // namespace smoothe::util

namespace smoothe::obs {

namespace detail {
extern std::atomic<bool> traceEnabled;
} // namespace detail

/** True while a trace session is recording (one relaxed load). */
inline bool
traceEnabled()
{
    return detail::traceEnabled.load(std::memory_order_relaxed);
}

/**
 * Returns a copy of `name` that lives until the process exits; equal
 * names share one copy. Trace events keep raw name pointers until they
 * are written, so a span named from a temporary string needs one.
 */
const char* internName(const std::string& name);

/** The process-wide trace-event collector. */
class TraceSession
{
  public:
    static TraceSession& instance();

    /** Clears prior events, restarts the clock, starts recording. */
    void start();

    /** Stops recording; collected events stay available. */
    void stop();

    bool enabled() const { return obs::traceEnabled(); }

    /** Microseconds since start() (0 before the first start). */
    double nowMicros() const;

    /** Records a complete event closing now; no-op when disabled. */
    void addComplete(const char* name, const char* category,
                     double start_us);

    /** Records a counter event (ph "C") at the current time. */
    void addCounter(const char* name, double value);

    /** Records an instant event (ph "i") at the current time. */
    void addInstant(const char* name, const char* category);

    std::size_t eventCount() const;

    /** {"traceEvents": [...], "displayTimeUnit": "ms"}. */
    util::Json toJson() const;

    /** Writes toJson() to a file; false on I/O error. */
    bool writeTo(const std::string& path) const;

    /** Drops all recorded events (does not change enablement). */
    void clear();

  private:
    TraceSession() = default;
    struct Impl;
    Impl& impl() const;
};

/**
 * RAII span: emits one complete trace event covering its lifetime.
 * Construction and destruction are a branch on an atomic when disabled.
 */
class Span
{
  public:
    explicit Span(const char* name, const char* category = "smoothe")
        : name_(name), category_(category), active_(obs::traceEnabled())
    {
        if (active_)
            startUs_ = TraceSession::instance().nowMicros();
    }

    /** Names the span from a runtime string, interned only if active. */
    explicit Span(const std::string& name, const char* category = "smoothe")
        : name_(nullptr), category_(category), active_(obs::traceEnabled())
    {
        if (active_) {
            name_ = internName(name);
            startUs_ = TraceSession::instance().nowMicros();
        }
    }

    ~Span() { end(); }

    /** Closes the span early; the destructor then does nothing. */
    void
    end()
    {
        if (active_) {
            active_ = false;
            TraceSession::instance().addComplete(name_, category_,
                                                 startUs_);
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    const char* name_;
    const char* category_;
    double startUs_ = 0.0;
    bool active_;
};

/** Emits a counter event when tracing is enabled; otherwise free. */
inline void
traceCounter(const char* name, double value)
{
    if (obs::traceEnabled())
        TraceSession::instance().addCounter(name, value);
}

/** Emits an instant event when tracing is enabled; otherwise free. */
inline void
traceInstant(const char* name, const char* category = "smoothe")
{
    if (obs::traceEnabled())
        TraceSession::instance().addInstant(name, category);
}

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_TRACE_HPP
