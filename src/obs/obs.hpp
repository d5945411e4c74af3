/**
 * @file
 * Umbrella header for the telemetry subsystem: the metrics registry
 * (obs/metrics.hpp), Chrome trace spans (obs/trace.hpp), the span-backed
 * phase profiler (obs/phase_profiler.hpp), the per-op kernel profiler
 * (obs/profiler.hpp), and structured run reports (obs/report.hpp).
 * See DESIGN.md's "Observability" and "Telemetry pipeline" sections for
 * the metric name catalogue and usage conventions.
 */

#ifndef SMOOTHE_OBS_OBS_HPP
#define SMOOTHE_OBS_OBS_HPP

#include "obs/metrics.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

#endif // SMOOTHE_OBS_OBS_HPP
