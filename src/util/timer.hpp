/**
 * @file
 * Wall-clock timing utilities used by extractors and the bench harness.
 */

#ifndef SMOOTHE_UTIL_TIMER_HPP
#define SMOOTHE_UTIL_TIMER_HPP

#include <chrono>
#include <limits>

namespace smoothe::util {

/** Monotonic wall-clock stopwatch. Starts on construction. */
class Timer
{
  public:
    Timer() : start_(Clock::now()) {}

    /** Restarts the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Returns elapsed seconds since construction or the last reset(). */
    double
    seconds() const
    {
        const auto now = Clock::now();
        return std::chrono::duration<double>(now - start_).count();
    }

    /** Returns elapsed milliseconds. */
    double milliseconds() const { return seconds() * 1e3; }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Deadline helper: tracks a time budget in seconds.
 *
 * A non-positive budget means "no limit".
 */
class Deadline
{
  public:
    explicit Deadline(double budget_seconds)
        : budget_(budget_seconds)
    {}

    /** Returns true once the budget is exhausted (never for budget <= 0). */
    bool
    expired() const
    {
        return budget_ > 0.0 && timer_.seconds() >= budget_;
    }

    /** Returns remaining seconds (infinity when unlimited). */
    double
    remaining() const
    {
        if (budget_ <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double left = budget_ - timer_.seconds();
        return left > 0.0 ? left : 0.0;
    }

    /** Returns elapsed seconds since construction. */
    double elapsed() const { return timer_.seconds(); }

  private:
    Timer timer_;
    double budget_;
};

} // namespace smoothe::util

#endif // SMOOTHE_UTIL_TIMER_HPP
