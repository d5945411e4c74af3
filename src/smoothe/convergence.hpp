/**
 * @file
 * Per-iteration convergence recording for SmoothE runs: the data behind
 * Figure 4-style anytime quality-vs-time curves, captured from every
 * run for free.
 *
 * The recorder keeps one ConvergencePoint per sampled iteration in a
 * fixed-capacity ring buffer: a configurable stride thins dense runs,
 * and once the ring wraps the oldest points are overwritten, so memory
 * stays bounded no matter how long the optimization runs. The collected
 * trajectory lands in SmoothEDiagnostics and, when a process report is
 * installed (--report-out / BENCH_<tool>.json), in the report's
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
                              ///< (-1 before the first valid sample)
    double gradNorm = 0.0;    ///< L2 norm of d loss / d theta
    double wallSeconds = 0.0; ///< since extraction start
};

/** Ring-buffered, strided collector of ConvergencePoints. */
class ConvergenceRecorder
{
  public:
    /**
     * @param stride keep every stride-th iteration (>= 1; 0 is treated
     *   as 1)
     * @param capacity ring size; once full, new points overwrite the
     *   oldest (0 disables recording entirely)
     */
    explicit ConvergenceRecorder(std::size_t stride = 1,
                                 std::size_t capacity = 4096);

    /** True when `iteration` should be recorded — callers use this to
     *  skip computing expensive inputs (the gradient norm) on skipped
     *  iterations. */
    bool wants(std::size_t iteration) const;

    /** Stores a point (ring overwrite when full). */
    void record(const ConvergencePoint& point);

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** Points recorded then overwritten by the ring. */
    std::size_t dropped() const { return dropped_; }

    /** The retained trajectory, oldest first. */
    std::vector<ConvergencePoint> ordered() const;

    /**
     * Appends the trajectory to the report series `name` with columns
     * [run, iteration, loss, softCost, sampledCost, gradNorm,
     * wallSeconds]; `run` disambiguates multiple extractions recorded
     * into one report. Non-finite values are sanitized to -1.
     */
    void dumpTo(obs::Report& report, const std::string& name,
                std::size_t run) const;

  private:
    std::size_t stride_;
    std::size_t capacity_;
    std::vector<ConvergencePoint> ring_;
    std::size_t next_ = 0; ///< ring write position once full
    std::size_t dropped_ = 0;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_CONVERGENCE_HPP
