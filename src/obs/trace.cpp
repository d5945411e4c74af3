#include "obs/trace.hpp"

#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::obs {

namespace detail {
std::atomic<bool> traceEnabled{false};
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/** tid -> track label, recorded once per thread for "M" metadata events. */
struct ThreadNames
{
    std::mutex mutex;
    std::vector<std::pair<std::uint32_t, std::string>> entries;
};

ThreadNames&
threadNames()
{
    // Intentionally leaked: the first span can be recorded after the CLI
    // layer registers its atexit flush, so a normal static would be
    // destroyed before toJson() runs at exit.
    static ThreadNames* names = new ThreadNames;
    return *names;
}

/**
 * Small dense per-process thread ids (Chrome wants integers). The first
 * call on each thread also records its track name: pool workers carry
 * their worker label so spans from parallel sections land on named
 * per-worker tracks.
 */
std::uint32_t
currentTid()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local std::uint32_t tid = 0;
    if (tid == 0) {
        tid = next.fetch_add(1);
        const char* label = util::ThreadPool::currentThreadLabel();
        ThreadNames& names = threadNames();
        std::lock_guard<std::mutex> lock(names.mutex);
        names.entries.emplace_back(tid, label ? label : "main");
    }
    return tid;
}

} // namespace

const char*
internName(const std::string& name)
{
    static std::mutex mutex;
    // Leaked like threadNames(): names are read by the exit-time flush.
    static auto* names = new std::unordered_set<std::string>;
    std::lock_guard<std::mutex> lock(mutex);
    return names->insert(name).first->c_str();
}

struct TraceSession::Impl
{
    mutable std::mutex mutex;
    Clock::time_point t0 = Clock::now();

    struct Event
    {
        const char* name; ///< literals or internName() copies
        const char* category;
        char phase;  ///< 'X' complete, 'C' counter, 'i' instant
        double tsUs; ///< relative microseconds
        double durUs = 0.0;
        double value = 0.0; ///< counter events
        std::uint32_t tid = 0;
    };
    std::vector<Event> events;
};

TraceSession&
TraceSession::instance()
{
    static TraceSession session;
    return session;
}

TraceSession::Impl&
TraceSession::impl() const
{
    static Impl storage;
    return storage;
}

void
TraceSession::start()
{
    Impl& state = impl();
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.events.clear();
        state.t0 = Clock::now();
    }
    detail::traceEnabled.store(true, std::memory_order_relaxed);
}

void
TraceSession::stop()
{
    detail::traceEnabled.store(false, std::memory_order_relaxed);
}

double
TraceSession::nowMicros() const
{
    const Impl& state = impl();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     state.t0)
        .count();
}

void
TraceSession::addComplete(const char* name, const char* category,
                          double start_us)
{
    if (!enabled())
        return;
    Impl& state = impl();
    Impl::Event event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.tsUs = start_us;
    event.durUs = nowMicros() - start_us;
    event.tid = currentTid();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events.push_back(event);
}

void
TraceSession::addCounter(const char* name, double value)
{
    if (!enabled())
        return;
    Impl& state = impl();
    Impl::Event event;
    event.name = name;
    event.category = "metric";
    event.phase = 'C';
    event.tsUs = nowMicros();
    event.value = value;
    event.tid = currentTid();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events.push_back(event);
}

void
TraceSession::addInstant(const char* name, const char* category)
{
    if (!enabled())
        return;
    Impl& state = impl();
    Impl::Event event;
    event.name = name;
    event.category = category;
    event.phase = 'i';
    event.tsUs = nowMicros();
    event.tid = currentTid();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events.push_back(event);
}

std::size_t
TraceSession::eventCount() const
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.events.size();
}

util::Json
TraceSession::toJson() const
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    util::Json events = util::Json::makeArray();
    {
        ThreadNames& names = threadNames();
        std::lock_guard<std::mutex> nameLock(names.mutex);
        for (const auto& [tid, label] : names.entries) {
            util::Json entry = util::Json::makeObject();
            entry.set("name", "thread_name");
            entry.set("ph", "M");
            entry.set("pid", 1);
            entry.set("tid", static_cast<double>(tid));
            entry.set("ts", 0.0);
            util::Json args = util::Json::makeObject();
            args.set("name", label);
            entry.set("args", std::move(args));
            events.push(std::move(entry));
        }
    }
    for (const Impl::Event& event : state.events) {
        util::Json entry = util::Json::makeObject();
        entry.set("name", event.name);
        entry.set("cat", event.category);
        entry.set("ph", std::string(1, event.phase));
        entry.set("pid", 1);
        entry.set("tid", static_cast<double>(event.tid));
        entry.set("ts", event.tsUs);
        if (event.phase == 'X')
            entry.set("dur", event.durUs);
        if (event.phase == 'C') {
            util::Json args = util::Json::makeObject();
            args.set("value", event.value);
            entry.set("args", std::move(args));
        }
        if (event.phase == 'i')
            entry.set("s", "t"); // thread-scoped instant
        events.push(std::move(entry));
    }
    util::Json doc = util::Json::makeObject();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

bool
TraceSession::writeTo(const std::string& path) const
{
    return util::writeFile(path, toJson().dump());
}

void
TraceSession::clear()
{
    Impl& state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events.clear();
}

} // namespace smoothe::obs
