#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>

namespace smoothe::util {

namespace {

/** Set for the lifetime of each pool worker thread. */
thread_local char workerLabel[16] = {0};
thread_local bool insideWorker = false;

std::size_t
clampThreads(std::size_t num_threads)
{
    if (num_threads == 0)
        return ThreadPool::hardwareThreads();
    return num_threads;
}

} // namespace

ThreadPool::ThreadPool(std::size_t num_threads)
{
    threads_ = clampThreads(num_threads);
    startWorkers(threads_ > 1 ? threads_ - 1 : 0);
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::resize(std::size_t num_threads)
{
    const std::size_t target = clampThreads(num_threads);
    if (target == threads_)
        return;
    stopWorkers();
    threads_ = target;
    startWorkers(threads_ > 1 ? threads_ - 1 : 0);
}

void
ThreadPool::startWorkers(std::size_t num_workers)
{
    stopping_ = false;
    workers_.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
    workers_.clear();
}

void
ThreadPool::workerLoop(std::size_t worker_index)
{
    std::snprintf(workerLabel, sizeof(workerLabel), "pool-%zu",
                  worker_index + 1);
    insideWorker = true;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = queue_.back();
            queue_.pop_back();
        }
        runTask(task);
    }
}

void
ThreadPool::runTask(const Task& task)
{
    std::exception_ptr error;
    try {
        (*task.body)(task.chunkBegin, task.chunkEnd);
    } catch (...) {
        error = std::current_exception();
    }
    Batch& batch = *task.batch;
    std::lock_guard<std::mutex> lock(batch.mutex);
    if (error && !batch.error)
        batch.error = std::move(error);
    if (--batch.pending == 0)
        batch.done.notify_all();
}

void
ThreadPool::parallelForChunks(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body)
{
    if (begin >= end)
        return;
    const std::size_t count = end - begin;
    grain = std::max<std::size_t>(1, grain);

    // Inline paths: single-threaded pool, a range that fits one chunk, or
    // a nested call from inside a worker (serialized; re-submitting would
    // deadlock the fixed-size pool under task inversion).
    if (threads_ <= 1 || count <= grain || insideWorker) {
        body(begin, end);
        return;
    }

    const std::size_t numChunks = (count + grain - 1) / grain;
    Batch batch;
    batch.pending = numChunks - 1; // calling thread runs the first chunk
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Push in reverse so workers pop chunks in ascending order (pure
        // scheduling nicety; correctness never depends on order).
        for (std::size_t c = numChunks; c > 1; --c) {
            Task task;
            task.chunkBegin = begin + (c - 1) * grain;
            task.chunkEnd = std::min(end, task.chunkBegin + grain);
            task.body = &body;
            task.batch = &batch;
            queue_.push_back(task);
        }
    }
    // Wake one worker per queued chunk, at most the whole pool. Workers
    // re-check the queue before they sleep, so none is missed; a chunk
    // no woken worker reaches is drained below by the caller.
    const std::size_t wakes = std::min(numChunks - 1, threads_ - 1);
    for (std::size_t w = 0; w < wakes; ++w)
        wake_.notify_one();

    std::exception_ptr callerError;
    try {
        body(begin, begin + grain);
    } catch (...) {
        callerError = std::current_exception();
    }

    // Drain remaining chunks of this batch on the calling thread too, so
    // a busy pool cannot starve the caller.
    for (;;) {
        Task task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty())
                break;
            task = queue_.back();
            if (task.batch != &batch)
                break;
            queue_.pop_back();
        }
        runTask(task);
    }

    {
        std::unique_lock<std::mutex> lock(batch.mutex);
        batch.done.wait(lock, [&batch] { return batch.pending == 0; });
        if (!callerError && batch.error)
            callerError = batch.error;
    }
    if (callerError)
        std::rethrow_exception(callerError);
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        std::size_t grain,
                        const std::function<void(std::size_t)>& body)
{
    parallelForChunks(begin, end, grain,
                      [&body](std::size_t chunk_begin,
                              std::size_t chunk_end) {
                          for (std::size_t i = chunk_begin; i < chunk_end;
                               ++i)
                              body(i);
                      });
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

std::size_t
ThreadPool::setGlobalThreads(std::size_t num_threads)
{
    ThreadPool& pool = global();
    pool.resize(num_threads);
    return pool.size();
}

std::size_t
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

bool
ThreadPool::onWorkerThread()
{
    return insideWorker;
}

const char*
ThreadPool::currentThreadLabel()
{
    return insideWorker ? workerLabel : nullptr;
}

} // namespace smoothe::util
