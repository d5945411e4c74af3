/**
 * @file
 * Unit tests for the telemetry subsystem (smoothe::obs): the metrics
 * registry, Chrome trace spans, the span-backed PhaseProfiler, and the
 * allocation-free disabled fast path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace so = smoothe::obs;
namespace su = smoothe::util;

// ---------------------------------------------------------------------------
// Global allocation counter for the disabled-fast-path test. Counting in
// the test binary's own operator new is the only way to prove "allocates
// nothing" without a heap profiler.
//
// The replacements stay out of line, opaque to their callers like the
// library's own operators. Inlined into a new-expression's cleanup path
// (gtest's CreateTest), the sized delete would expose its free() to the
// pointer the caller got from operator new, and GCC reports that pair as
// -Wmismatched-new-delete.

namespace {
std::atomic<std::uint64_t> gAllocations{0};
} // namespace

[[gnu::noinline]] void*
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

TEST(Metrics, CounterGaugeArithmetic)
{
    so::Counter& counter = so::counter("test.counter");
    counter.reset();
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.get(), 42u);

    so::Gauge& gauge = so::gauge("test.gauge");
    gauge.set(2.5);
    EXPECT_DOUBLE_EQ(gauge.get(), 2.5);
    gauge.set(-1.0);
    EXPECT_DOUBLE_EQ(gauge.get(), -1.0);

    // Same name returns the same metric.
    EXPECT_EQ(&so::counter("test.counter"), &counter);
}

TEST(Metrics, JsonShape)
{
    so::counter("test.json_counter").reset();
    so::counter("test.json_counter").add(3);
    so::gauge("test.json_gauge").set(1.5);

    const auto doc =
        su::Json::parse(so::MetricsRegistry::instance().toJson().dump());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->find("test.json_counter")->asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(doc->find("test.json_gauge")->asNumber(), 1.5);
}

TEST(Trace, SpansProduceBalancedChromeJson)
{
    so::TraceSession& session = so::TraceSession::instance();
    session.start();
    {
        so::Span outer("outer", "test");
        {
            so::Span inner("inner", "test");
        }
        so::traceCounter("test.counter_event", 3.5);
        so::traceInstant("test.instant");
    }
    session.stop();

    // 2 complete spans + 1 counter + 1 instant.
    EXPECT_EQ(session.eventCount(), 4u);

    const auto doc = su::Json::parse(session.toJson().dump());
    ASSERT_TRUE(doc.has_value());
    const su::Json* events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t complete = 0;
    bool sawCounter = false;
    for (const su::Json& event : events->asArray()) {
        const std::string ph = event.find("ph")->asString();
        EXPECT_NE(event.find("name"), nullptr);
        EXPECT_NE(event.find("ts"), nullptr);
        EXPECT_NE(event.find("pid"), nullptr);
        EXPECT_NE(event.find("tid"), nullptr);
        if (ph == "X") {
            ++complete;
            EXPECT_GE(event.find("dur")->asNumber(), 0.0);
        } else if (ph == "C") {
            sawCounter = true;
            EXPECT_DOUBLE_EQ(
                event.find("args")->find("value")->asNumber(), 3.5);
        }
    }
    EXPECT_EQ(complete, 2u);
    EXPECT_TRUE(sawCounter);

    // writeTo produces a parseable file.
    const std::string path = ::testing::TempDir() + "obs_trace.json";
    ASSERT_TRUE(session.writeTo(path));
    EXPECT_TRUE(su::Json::parse(readFile(path)).has_value());
    std::remove(path.c_str());
    session.clear();
}

TEST(Trace, SpanEndClosesEarlyExactlyOnce)
{
    so::TraceSession& session = so::TraceSession::instance();
    session.start();
    {
        so::Span span("early", "test");
        span.end();
        span.end(); // second end is a no-op
    } // destructor must not emit again
    session.stop();
    EXPECT_EQ(session.eventCount(), 1u);
    session.clear();
}

TEST(PhaseProfiler, AccumulatesScopes)
{
    so::PhaseProfiler profiler;
    {
        auto scope = profiler.loss();
        volatile int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
        (void)sink;
    }
    {
        auto scope = profiler.sampling();
    }
    EXPECT_GE(profiler.lossSeconds, 0.0);
    EXPECT_GT(profiler.lossSeconds + profiler.samplingSeconds, 0.0);
    EXPECT_GE(profiler.total(), profiler.lossSeconds);
}

TEST(PhaseProfiler, ScopesEmitSpansWhenTracing)
{
    so::TraceSession& session = so::TraceSession::instance();
    session.start();
    so::PhaseProfiler profiler;
    {
        auto scope = profiler.loss();
    }
    {
        auto scope = profiler.gradient();
    }
    session.stop();
    EXPECT_EQ(session.eventCount(), 2u);
    session.clear();
}

TEST(PhaseProfiler, ScopesFeedReportTotals)
{
    so::Report& report = so::Report::install("phase_test", "");
    so::PhaseProfiler profiler;
    for (int i = 0; i < 3; ++i) {
        auto scope = profiler.loss();
        volatile int sink = 0;
        for (int j = 0; j < 1000; ++j)
            sink = sink + j;
        (void)sink;
    }
    {
        auto scope = profiler.sampling();
    }
    const su::Json doc = report.toJson(false);
    so::Report::uninstall();

    const su::Json* phases = doc.find("phases");
    ASSERT_NE(phases, nullptr);
    const su::Json* loss = phases->find("loss");
    const su::Json* sampling = phases->find("sampling");
    ASSERT_NE(loss, nullptr);
    ASSERT_NE(sampling, nullptr);
    EXPECT_EQ(loss->find("count")->asNumber(), 3.0);
    EXPECT_EQ(sampling->find("count")->asNumber(), 1.0);
    // The slot and the report add the same durations in the same order.
    EXPECT_EQ(loss->find("sum")->asNumber(), profiler.lossSeconds);
    EXPECT_EQ(sampling->find("sum")->asNumber(), profiler.samplingSeconds);
    EXPECT_EQ(phases->find("gradient"), nullptr);
}

TEST(Disabled, FastPathAllocatesNothing)
{
    // With tracing off, spans and counter updates must not touch the heap.
    ASSERT_FALSE(so::traceEnabled());

    so::Counter& counter = so::counter("test.fastpath.counter");
    so::Gauge& gauge = so::gauge("test.fastpath.gauge");

    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        so::Span span("hot", "test");
        counter.add(1);
        gauge.set(static_cast<double>(i));
        so::traceCounter("hot.counter", 1.0);
    }
    const std::uint64_t after =
        gAllocations.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after);
}
