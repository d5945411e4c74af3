/**
 * @file
 * Fixed-size worker thread pool with a chunked parallel_for.
 *
 * The pool is the CPU stand-in for the paper's GPU data parallelism: the
 * batched SmoothE kernels split their row loops across workers, the
 * sampling stage fans out per-seed work, and the harness binaries run
 * independent e-graphs concurrently. Workers are spawned once and reused
 * across iterations; a parallelFor call costs two mutex round-trips plus
 * one condition-variable wake per queued chunk (at most one per worker),
 * never a thread spawn. Workers with no chunk to take stay asleep: the
 * benchmark's time metric is CPU time summed over threads, so a worker
 * woken only to find the queue empty is pure cost.
 *
 * Determinism contract: parallelFor partitions [begin, end) into the same
 * chunks for every pool size, and each index is processed by exactly one
 * task, so kernels that write disjoint outputs per index produce
 * bit-identical results for any thread count (including 1, which runs
 * inline on the caller). Nested parallelFor calls from inside a worker are
 * serialized on that worker rather than re-submitted, so outer-level
 * parallelism (e.g. one extraction per graph) transparently flattens
 * inner-level kernel parallelism.
 */

#ifndef SMOOTHE_UTIL_THREAD_POOL_HPP
#define SMOOTHE_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace smoothe::util {

/** Fixed worker pool; see the file comment for the determinism contract. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 means hardwareThreads(). A pool
     *        of size 1 spawns no workers and runs everything inline.
     */
    explicit ThreadPool(std::size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Current worker-visible concurrency (>= 1). */
    std::size_t size() const { return threads_; }

    /**
     * Stops the current workers and spawns a new set. Callers must ensure
     * no parallelFor is in flight; intended for CLI startup (--threads)
     * and tests, not for mid-extraction reconfiguration.
     */
    void resize(std::size_t num_threads);

    /**
     * Runs body(i) for every i in [begin, end), split into contiguous
     * chunks of at least `grain` indices. Blocks until every chunk
     * finished. The calling thread participates, so the pool is never
     * oversubscribed. The first exception thrown by any chunk is
     * rethrown here (the remaining chunks still run to completion).
     *
     * Chunk boundaries depend only on (begin, end, grain) — never on the
     * worker count — so any per-index computation that writes disjoint
     * outputs is bit-identical across thread counts.
     */
    void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                     const std::function<void(std::size_t)>& body);

    /**
     * Chunked variant: body(chunk_begin, chunk_end) per chunk, for loops
     * that want to hoist per-chunk setup out of the index loop.
     */
    void parallelForChunks(
        std::size_t begin, std::size_t end, std::size_t grain,
        const std::function<void(std::size_t, std::size_t)>& body);

    /** The process-wide pool used by the tensor/tape kernels. */
    static ThreadPool& global();

    /**
     * Resizes the global pool: 0 = hardwareThreads(). Returns the new
     * size. Used by --threads and SmoothEConfig::numThreads.
     */
    static std::size_t setGlobalThreads(std::size_t num_threads);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static std::size_t hardwareThreads();

    /** True when the current thread is a pool worker (any pool). */
    static bool onWorkerThread();

    /**
     * Label of the current pool worker ("pool-3"), or nullptr on
     * non-worker threads. The trace session uses this to name per-worker
     * Chrome-trace tracks.
     */
    static const char* currentThreadLabel();

  private:
    struct Batch;

    struct Task
    {
        std::size_t chunkBegin = 0;
        std::size_t chunkEnd = 0;
        const std::function<void(std::size_t, std::size_t)>* body = nullptr;
        Batch* batch = nullptr;
    };

    /** Shared completion state for one parallelForChunks call. */
    struct Batch
    {
        std::mutex mutex;
        std::condition_variable done;
        std::size_t pending = 0;
        std::exception_ptr error;
    };

    void workerLoop(std::size_t worker_index);
    void runTask(const Task& task);
    void startWorkers(std::size_t num_workers);
    void stopWorkers();

    std::size_t threads_ = 1;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::vector<Task> queue_;
    bool stopping_ = false;
};

} // namespace smoothe::util

#endif // SMOOTHE_UTIL_THREAD_POOL_HPP
