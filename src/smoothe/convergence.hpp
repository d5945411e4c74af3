/**
 * @file
 * Per-iteration convergence recording for SmoothE runs: the data behind
 * Figure 4-style anytime quality-vs-time curves, captured from every
 * run for free, and the relaxed-vs-sampled loss pair behind Figure 9.
 *
 * The recorder keeps one ConvergencePoint per iteration in a ring
 * buffer of kCapacity points: once it wraps, the oldest points are
 * overwritten, so memory stays bounded no matter how long the
 * optimization runs. The collected trajectory lands in
 * SmoothEDiagnostics and, when a process report is installed
 * (--report-out / BENCH_<tool>.json), in the report's
 * "smoothe.convergence" series.
 */

#ifndef SMOOTHE_SMOOTHE_CONVERGENCE_HPP
#define SMOOTHE_SMOOTHE_CONVERGENCE_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace smoothe::obs {
class Report;
} // namespace smoothe::obs

namespace smoothe::core {

/** One recorded optimization step. */
struct ConvergencePoint
{
    std::size_t iteration = 0;
    double loss = 0.0;        ///< total objective incl. NOTEARS penalty
    double softCost = 0.0;    ///< mean relaxed cost f(p) across seeds
    double sampledCost = 0.0; ///< best discrete-sampled cost so far
                              ///< (+inf before the first valid sample)
    double gradNorm = 0.0;    ///< L2 norm of d loss / d theta
    double wallSeconds = 0.0; ///< since extraction start
    /** Best valid sampled cost among this iteration's seeds, f_b(s) in
     *  Figure 9 (+inf when no seed sampled a valid selection). */
    double iterSampledCost = 0.0;
    double penalty = 0.0;     ///< NOTEARS h(A) total (0 when acyclic)
};

/** Ring-buffered collector of ConvergencePoints. */
class ConvergenceRecorder
{
  public:
    /** Ring size: once full, new points overwrite the oldest. */
    static constexpr std::size_t kCapacity = 4096;

    /** Stores a point (ring overwrite when full). */
    void record(const ConvergencePoint& point);

    std::size_t size() const;

    /** Points recorded then overwritten by the ring. */
    std::size_t dropped() const { return dropped_; }

    /** The retained trajectory, oldest first. */
    std::vector<ConvergencePoint> ordered() const;

    /**
     * Appends the trajectory to the report series `name` with columns
     * [run, iteration, loss, softCost, sampledCost, gradNorm,
     * wallSeconds, iterSampledCost, penalty]; `run` disambiguates
     * multiple extractions recorded into one report. Non-finite values
     * (the +inf sampled costs) are written as -1.
     */
    void dumpTo(obs::Report& report, const std::string& name,
                std::size_t run) const;

  private:
    std::vector<ConvergencePoint> ring_;
    std::size_t next_ = 0; ///< ring write position once full
    std::size_t dropped_ = 0;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_CONVERGENCE_HPP
