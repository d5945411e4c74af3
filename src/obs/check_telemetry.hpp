/**
 * @file
 * Bridges the contract layer (src/check, dependency-free by design) into
 * the metrics registry: a ViolationObserver that bumps the
 * `check.failures` counters (total plus per tier) for every failed
 * contract; check::dispatch itself prints the failure line. Installed
 * automatically by installCliTelemetry(), so every tool and bench binary
 * gets contract telemetry; tests install it explicitly when they assert
 * on counters.
 */

#ifndef SMOOTHE_OBS_CHECK_TELEMETRY_HPP
#define SMOOTHE_OBS_CHECK_TELEMETRY_HPP

namespace smoothe::obs {

/**
 * Routes contract violations into metrics. Idempotent.
 * Returns whether an observer was already installed before this call.
 */
bool installCheckTelemetry();

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_CHECK_TELEMETRY_HPP
