#include "smoothe/convergence.hpp"

#include <cmath>

#include "obs/report.hpp"

namespace smoothe::core {

namespace {

double
sanitize(double value)
{
    return std::isfinite(value) ? value : -1.0;
}

} // namespace

void
ConvergenceRecorder::record(const ConvergencePoint& point)
{
    if (ring_.size() < kCapacity) {
        ring_.push_back(point);
        return;
    }
    ring_[next_] = point;
    next_ = (next_ + 1) % kCapacity;
    ++dropped_;
}

std::size_t
ConvergenceRecorder::size() const
{
    return ring_.size();
}

std::vector<ConvergencePoint>
ConvergenceRecorder::ordered() const
{
    std::vector<ConvergencePoint> out;
    out.reserve(ring_.size());
    // next_ is the oldest slot once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(next_ + i) % ring_.size()]);
    return out;
}

void
ConvergenceRecorder::dumpTo(obs::Report& report, const std::string& name,
                            std::size_t run) const
{
    obs::Series& series = report.series(
        name, {"run", "iteration", "loss", "softCost", "sampledCost",
               "gradNorm", "wallSeconds", "iterSampledCost", "penalty"});
    for (const ConvergencePoint& point : ordered()) {
        series.addRow({static_cast<double>(run),
                       static_cast<double>(point.iteration),
                       sanitize(point.loss), sanitize(point.softCost),
                       sanitize(point.sampledCost),
                       sanitize(point.gradNorm),
                       sanitize(point.wallSeconds),
                       sanitize(point.iterSampledCost),
                       sanitize(point.penalty)});
    }
}

} // namespace smoothe::core
