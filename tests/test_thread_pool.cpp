/**
 * @file
 * ThreadPool unit tests: full index coverage, chunk partitioning,
 * exception propagation, nested-call serialization, resize, the
 * one-wake-per-queued-chunk dispatch (no batch may stall for want of a
 * woken worker), and the determinism contract (identical results for
 * any pool size).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "smoothe/smoothe.hpp"
#include "util/thread_pool.hpp"

namespace util = smoothe::util;

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    constexpr std::size_t n = 10007; // prime: chunks won't divide evenly
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, 64,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ChunksCoverRangeWithoutOverlap)
{
    util::ThreadPool pool(3);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallelForChunks(5, 1000, 128,
                           [&](std::size_t begin, std::size_t end) {
                               std::lock_guard<std::mutex> lock(mutex);
                               chunks.emplace_back(begin, end);
                           });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_FALSE(chunks.empty());
    EXPECT_EQ(chunks.front().first, 5u);
    EXPECT_EQ(chunks.back().second, 1000u);
    for (std::size_t c = 1; c < chunks.size(); ++c)
        EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
    for (const auto& [begin, end] : chunks) {
        EXPECT_LT(begin, end);
        if (end != 1000u) {
            EXPECT_EQ(end - begin, 128u);
        }
    }
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline)
{
    util::ThreadPool pool(4);
    std::size_t calls = 0;
    pool.parallelForChunks(0, 10, 100,
                           [&](std::size_t begin, std::size_t end) {
                               ++calls;
                               EXPECT_EQ(begin, 0u);
                               EXPECT_EQ(end, 10u);
                           });
    EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, EmptyRangeDoesNothing)
{
    util::ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(7, 7, 1, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagatesAndRemainingChunksRun)
{
    util::ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(
        pool.parallelFor(0, n, 10,
                         [&](std::size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 500)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool finishes every other chunk before rethrowing; only the
    // remainder of the throwing chunk [500, 510) is abandoned.
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 500 && i < 510)
            continue;
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(hits[500].load(), 1);
}

TEST(ThreadPool, NestedParallelForSerializesInsteadOfDeadlocking)
{
    util::ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(0, 4, 1, [&](std::size_t) {
        // A nested submission into the same fixed pool must run inline on
        // whichever thread issued it; resubmitting could deadlock.
        pool.parallelFor(0, 100, 10,
                         [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 400u);
}

TEST(ThreadPool, SizeOneRunsInlineWithoutWorkers)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::size_t sum = 0; // unsynchronized on purpose: everything inline
    pool.parallelFor(0, 100, 8, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ResizeChangesWorkerCount)
{
    util::ThreadPool pool(1);
    pool.resize(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<std::size_t> count{0};
    pool.parallelFor(0, 1000, 10,
                     [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000u);
    pool.resize(1);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, BackToBackTwoChunkBatchesComplete)
{
    // Each batch queues one chunk and wakes one worker; the other
    // workers sleep through it.
    util::ThreadPool pool(4);
    constexpr std::size_t kBatches = 10000;
    std::vector<std::atomic<int>> hits(2 * kBatches);
    for (std::size_t b = 0; b < kBatches; ++b)
        pool.parallelFor(2 * b, 2 * b + 2, 1,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ConcurrentExternalCallersBothFinish)
{
    util::ThreadPool pool(4);
    constexpr std::size_t kBatches = 2000;
    constexpr std::size_t kRange = 12;
    std::vector<std::atomic<int>> hits[2] = {
        std::vector<std::atomic<int>>(kRange),
        std::vector<std::atomic<int>>(kRange)};
    auto dispatch = [&](std::vector<std::atomic<int>>& mine) {
        for (std::size_t b = 0; b < kBatches; ++b)
            pool.parallelFor(0, kRange, 4,
                             [&](std::size_t i) { mine[i].fetch_add(1); });
    };
    std::thread first(dispatch, std::ref(hits[0]));
    std::thread second(dispatch, std::ref(hits[1]));
    first.join();
    second.join();
    for (const auto& mine : hits)
        for (std::size_t i = 0; i < kRange; ++i)
            EXPECT_EQ(mine[i].load(), static_cast<int>(kBatches))
                << "index " << i;
}

TEST(ThreadPool, MoreChunksThanWorkersAfterResizeComplete)
{
    util::ThreadPool pool(4);
    pool.resize(2); // one worker left for 100 chunks
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, hits.size(), 10,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, OnWorkerThreadOnlyInsideWorkers)
{
    EXPECT_FALSE(util::ThreadPool::onWorkerThread());
    EXPECT_EQ(util::ThreadPool::currentThreadLabel(), nullptr);
    util::ThreadPool pool(4);
    std::atomic<int> sawWorker{0};
    pool.parallelFor(0, 64, 1, [&](std::size_t) {
        if (util::ThreadPool::onWorkerThread()) {
            sawWorker.fetch_add(1);
            EXPECT_NE(util::ThreadPool::currentThreadLabel(), nullptr);
        }
    });
    // The caller runs chunks too, so not every index sees a worker; on a
    // single-core host the workers may not win any chunk at all.
    EXPECT_GE(sawWorker.load(), 0);
    EXPECT_FALSE(util::ThreadPool::onWorkerThread());
}

TEST(ThreadPool, ChunkBoundariesIndependentOfPoolSize)
{
    auto collect = [](std::size_t threads) {
        util::ThreadPool pool(threads);
        std::mutex mutex;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallelForChunks(0, 4097, 256,
                               [&](std::size_t begin, std::size_t end) {
                                   std::lock_guard<std::mutex> lock(mutex);
                                   chunks.emplace_back(begin, end);
                               });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    const auto two = collect(2);
    const auto eight = collect(8);
    EXPECT_EQ(two, eight);
}

/**
 * End-to-end determinism: a SmoothE extraction (softmax, propagation,
 * NOTEARS penalty, Adam, sampling) must produce the same cost and the
 * same chosen e-nodes for pool sizes 1 and 4.
 */
TEST(ThreadPoolDeterminism, ExtractionIdenticalAcrossPoolSizes)
{
    namespace core = smoothe::core;
    namespace eg = smoothe::eg;

    // A small diamond-shaped e-graph with a cycle and cost trade-offs.
    eg::EGraph graph;
    const auto root = graph.addClass();
    const auto left = graph.addClass();
    const auto right = graph.addClass();
    const auto leaf = graph.addClass();
    graph.addNode(root, "fast", {left}, 1.0);
    graph.addNode(root, "slow", {right}, 2.0);
    graph.addNode(left, "l0", {leaf}, 4.0);
    graph.addNode(left, "l1", {leaf, right}, 1.0);
    graph.addNode(right, "r0", {leaf}, 2.0);
    graph.addNode(leaf, "x", {}, 0.5);
    graph.setRoot(root);
    ASSERT_FALSE(graph.finalize().has_value());

    auto runAt = [&graph](std::size_t threads) {
        core::SmoothEConfig config;
        config.numSeeds = 8;
        config.maxIterations = 40;
        config.numThreads = threads;
        core::SmoothEExtractor extractor(config);
        smoothe::extract::ExtractOptions options;
        options.seed = 7;
        options.timeLimitSeconds = 1e9;
        return extractor.extract(graph, options);
    };

    const auto serial = runAt(1);
    const auto parallel = runAt(4);
    util::ThreadPool::setGlobalThreads(1); // restore for other tests
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial.cost, parallel.cost);
    EXPECT_EQ(serial.selection.choice, parallel.selection.choice);
}
