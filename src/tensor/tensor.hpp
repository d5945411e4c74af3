/**
 * @file
 * Batched dense tensors, sparse index structures, and the memory arena.
 *
 * This module is the stand-in for the paper's PyTorch + torch_sparse
 * substrate. Tensors are 2-D row-major float32 buffers, conventionally
 * (batch B) x (length N); the batch dimension carries the paper's *seed
 * batching* (Section 4.2). The Arena tracks live tensor bytes against an
 * optional budget so experiments can emulate GPU memory capacities
 * (Table 5 portability, Figure 6 OOM entries).
 */

#ifndef SMOOTHE_TENSOR_TENSOR_HPP
#define SMOOTHE_TENSOR_TENSOR_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace smoothe::tensor {

/** Thrown when an allocation would exceed the arena budget (emulated OOM). */
class OomError : public std::runtime_error
{
  public:
    explicit OomError(const std::string& message)
        : std::runtime_error(message)
    {}
};

/**
 * Tracks live tensor bytes against an optional budget.
 *
 * budgetBytes == 0 means unlimited. Allocation beyond the budget throws
 * OomError, which SmoothE surfaces as an OOM failure exactly like a CUDA
 * allocator would.
 *
 * Thread-safe: the counters are atomics so tensors may be created and
 * destroyed from thread-pool workers (parallel sampling, per-graph tool
 * parallelism). setBudget() is not synchronized against concurrent
 * allocations; configure the budget before sharing the arena.
 */
class Arena
{
  public:
    explicit Arena(std::size_t budget_bytes = 0) : budget_(budget_bytes) {}

    /** Registers an allocation; throws OomError when over budget. */
    void
    allocate(std::size_t bytes)
    {
        const std::size_t used =
            used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
        if (budget_ != 0 && used > budget_) {
            used_.fetch_sub(bytes, std::memory_order_relaxed);
            throw OomError("arena budget exceeded: " + std::to_string(used) +
                           " > " + std::to_string(budget_) + " bytes");
        }
        std::size_t peak = peak_.load(std::memory_order_relaxed);
        while (used > peak &&
               !peak_.compare_exchange_weak(peak, used,
                                            std::memory_order_relaxed)) {
        }
    }

    /** Releases a previously registered allocation. */
    void
    release(std::size_t bytes)
    {
        std::size_t used = used_.load(std::memory_order_relaxed);
        while (!used_.compare_exchange_weak(used,
                                            bytes > used ? 0 : used - bytes,
                                            std::memory_order_relaxed)) {
        }
    }

    std::size_t used() const
    {
        return used_.load(std::memory_order_relaxed);
    }
    std::size_t peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }
    std::size_t budget() const { return budget_; }
    void setBudget(std::size_t bytes) { budget_ = bytes; }
    void resetPeak()
    {
        peak_.store(used_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    }

  private:
    std::size_t budget_;
    std::atomic<std::size_t> used_{0};
    std::atomic<std::size_t> peak_{0};
};

/**
 * A 2-D row-major float32 tensor, optionally arena-accounted.
 *
 * Rows usually carry the seed batch; a 1 x N tensor is a plain vector.
 */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocates rows x cols zeros, registering with the arena if given. */
    Tensor(std::size_t rows, std::size_t cols, Arena* arena = nullptr);

    /** Allocates and fills with a constant. */
    Tensor(std::size_t rows, std::size_t cols, float fill,
           Arena* arena = nullptr);

    Tensor(const Tensor& other);
    Tensor(Tensor&& other) noexcept;
    Tensor& operator=(const Tensor& other);
    Tensor& operator=(Tensor&& other) noexcept;
    ~Tensor();

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float* row(std::size_t r) { return data_.data() + r * cols_; }
    const float* row(std::size_t r) const { return data_.data() + r * cols_; }

    /** Sets every element to the given value. */
    void fill(float value);

    /** Sum of all elements (double accumulator). */
    double sum() const;

  private:
    void registerBytes();
    void releaseBytes();

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
    Arena* arena_ = nullptr;
};

/**
 * CSR-style segment index: segment s owns items[offsets[s] .. offsets[s+1]).
 * Used for e-class -> member-e-node and e-class -> parent-e-node maps.
 */
struct SegmentIndex
{
    std::vector<std::uint32_t> offsets; ///< size = numSegments + 1
    std::vector<std::uint32_t> items;

    std::size_t numSegments() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    std::size_t
    segmentSize(std::size_t s) const
    {
        return offsets[s + 1] - offsets[s];
    }
    std::size_t
    maxSegmentSize() const
    {
        std::size_t longest = 0;
        for (std::size_t s = 0; s < numSegments(); ++s)
            longest = std::max(longest, segmentSize(s));
        return longest;
    }

    /** Builds from per-item segment assignment (items sorted by segment). */
    static SegmentIndex fromAssignment(
        const std::vector<std::uint32_t>& item_segment,
        std::size_t num_segments);
};

// Sparse matrix layouts (CsrMatrix, CscMatrix) and the batched
// propagation SpMV live in tensor/sparse.hpp.

} // namespace smoothe::tensor

#endif // SMOOTHE_TENSOR_TENSOR_HPP
