#include "obs/metrics.hpp"

#include <map>
#include <memory>
#include <mutex>

#include "util/json.hpp"

namespace smoothe::obs {

struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
};

MetricsRegistry&
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Impl&
MetricsRegistry::impl() const
{
    static Impl storage;
    return storage;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    auto& slot = state.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    auto& slot = state.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

util::Json
MetricsRegistry::toJson() const
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    util::Json doc = util::Json::makeObject();
    for (const auto& [name, counter] : state.counters)
        doc.set(name, static_cast<double>(counter->get()));
    for (const auto& [name, gauge] : state.gauges)
        doc.set(name, gauge->get());
    return doc;
}

void
MetricsRegistry::reset()
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto& [_, counter] : state.counters)
        counter->reset();
    for (auto& [_, gauge] : state.gauges)
        gauge->reset();
}

Counter&
counter(const std::string& name)
{
    return MetricsRegistry::instance().counter(name);
}

Gauge&
gauge(const std::string& name)
{
    return MetricsRegistry::instance().gauge(name);
}

bool
writeMetricsFile(const std::string& path)
{
    return util::writeFile(
        path, MetricsRegistry::instance().toJson().dumpPretty());
}

} // namespace smoothe::obs
