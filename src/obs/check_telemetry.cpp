#include "obs/check_telemetry.hpp"

#include <cstring>

#include "check/contracts.hpp"
#include "obs/metrics.hpp"

namespace smoothe::obs {

namespace {

/** Counter name for a tier ("CHECK" -> "check.failures.check"). */
const char*
tierCounterName(const char* tier)
{
    if (std::strcmp(tier, "ASSERT") == 0)
        return "check.failures.assert";
    if (std::strcmp(tier, "DCHECK") == 0)
        return "check.failures.dcheck";
    return "check.failures.check";
}

void
observeViolation(const check::ViolationInfo& info)
{
    counter("check.failures").add();
    counter(tierCounterName(info.tier)).add();
}

} // namespace

bool
installCheckTelemetry()
{
    return check::setViolationObserver(&observeViolation) != nullptr;
}

} // namespace smoothe::obs
