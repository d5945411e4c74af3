/**
 * @file
 * Figure 8 phase accumulator.
 *
 * One timer per scope: its duration is added to the scope's slot
 * (lossSeconds et al., which the Figure 8 bench prints) and, when a
 * report is installed, to that report's per-phase count and sum (the
 * "phases" section). While a TraceSession is recording, each scope also
 * emits a "phase"-category trace span.
 */

#ifndef SMOOTHE_OBS_PHASE_PROFILER_HPP
#define SMOOTHE_OBS_PHASE_PROFILER_HPP

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace smoothe::obs {

/** Accumulates time spent in named phases (used for Figure 8 profiling). */
class PhaseProfiler
{
  public:
    /** RAII scope: adds its lifetime to the slot, emits a span, and
     *  feeds the report's phase totals when one is installed. */
    class Scope
    {
      public:
        Scope(const char* name, double& slot)
            : name_(name), slot_(slot), span_(name, "phase")
        {}
        ~Scope()
        {
            const double seconds = timer_.seconds();
            slot_ += seconds;
            if (Report* report = Report::current())
                report->addPhase(name_, seconds);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        const char* name_;
        double& slot_;
        Span span_;
        util::Timer timer_;
    };

    double lossSeconds = 0.0;     ///< forward pass / loss calculation
    double gradientSeconds = 0.0; ///< backward pass + optimizer step
    double samplingSeconds = 0.0; ///< discrete sampling + validation
    double otherSeconds = 0.0;    ///< setup, bookkeeping

    Scope loss() { return Scope("loss", lossSeconds); }
    Scope gradient() { return Scope("gradient", gradientSeconds); }
    Scope sampling() { return Scope("sampling", samplingSeconds); }
    Scope other() { return Scope("other", otherSeconds); }

    double
    total() const
    {
        return lossSeconds + gradientSeconds + samplingSeconds + otherSeconds;
    }
};

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_PHASE_PROFILER_HPP
