/**
 * @file
 * Process-wide metrics registry: named counters and gauges, dumpable as
 * JSON.
 *
 * Metrics are registered lazily on first use and live for the process
 * lifetime, so call sites can cache a reference once (typically in a
 * function-local static) and then update it with a single relaxed atomic
 * operation — cheap enough for kernel-level hot paths. The registry is
 * thread-safe; updates never allocate.
 */

#ifndef SMOOTHE_OBS_METRICS_HPP
#define SMOOTHE_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <string>

namespace smoothe::util {
class Json;
} // namespace smoothe::util

namespace smoothe::obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    get() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double value) { value_.store(value, std::memory_order_relaxed); }

    double get() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** The process-wide named-metric registry. */
class MetricsRegistry
{
  public:
    static MetricsRegistry& instance();

    /** Returns (registering on first use) the named metric; the reference
     *  stays valid for the process lifetime. */
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);

    /** Flat JSON object: every counter and gauge as a number. */
    util::Json toJson() const;

    /** Zeroes every metric, keeping registrations (tests, multi-run). */
    void reset();

  private:
    MetricsRegistry() = default;
    struct Impl;
    Impl& impl() const;
};

/** Shorthand for MetricsRegistry::instance().counter(name) etc. */
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);

/** Writes the registry JSON (pretty) to a file; false on I/O error. */
bool writeMetricsFile(const std::string& path);

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_METRICS_HPP
