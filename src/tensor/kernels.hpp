/**
 * @file
 * Destination-buffer tensor kernels ("*Into" variants).
 *
 * Every kernel writes its result into a caller-provided, correctly
 * shaped tensor instead of allocating one. This is what lets the
 * compiled autodiff Program (src/autodiff/program.hpp) replay a
 * recorded forward pass into a static buffer plan with zero
 * per-iteration allocation; the recording Tape calls the same kernels
 * with freshly allocated tensors, so a replay reproduces the recording
 * pass bit for bit.
 *
 * Determinism contract (see DESIGN.md "Parallel execution"): chunk
 * grains are fixed constants, each output element is written by exactly
 * one task, and in-chunk loop order matches the serial code, so results
 * are bit-identical for every thread count.
 *
 * Buffer-reuse contract: kernels either write every output element
 * unconditionally or zero the destination themselves (matmulInto,
 * scatterMatrixInto, meanRowsInto, and segmentSoftmaxInto when the
 * segments do not cover every column), so replaying into a dirty buffer
 * yields the same bits as running into a fresh zeroed one.
 */

#ifndef SMOOTHE_TENSOR_KERNELS_HPP
#define SMOOTHE_TENSOR_KERNELS_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.hpp"

namespace smoothe::tensor {

/** Sparse (column, matrix-position) entries for scatterMatrixInto. */
struct MatrixEntry
{
    std::uint32_t column;   ///< source column in the input tensor
    std::uint32_t position; ///< destination flat index in the d x d matrix
};

/**
 * Stage kinds a fused elementwise chain may contain. All four have
 * constant Jacobians (the backward pass never reads intermediate
 * values), which is what lets the Program fusion pass collapse
 * arbitrary single-consumer runs of them into one kernel launch.
 */
enum class ElemStageKind : std::uint8_t {
    Scale,     ///< v = alpha * v
    AddScalar, ///< v = v + alpha
    MulConst,  ///< v = v * c[i]   (c may broadcast 1 x C over rows)
    AddConst,  ///< v = v + c[i]   (c may broadcast 1 x C over rows)
};

/** One stage of a fused elementwise chain. */
struct ElemStage
{
    ElemStageKind kind = ElemStageKind::Scale;
    float alpha = 0.0f; ///< Scale factor / AddScalar addend
    Tensor c;           ///< MulConst/AddConst operand (empty otherwise)
};

/**
 * Flat elements per parallel task for elementwise kernels. Fixed (never
 * derived from the worker count) so the work partition — and therefore
 * the float result — is identical for every thread count.
 */
constexpr std::size_t kElemGrain = std::size_t{1} << 15;

/** Batch rows per parallel task, sized so a task touches ~kElemGrain
 *  elements. */
std::size_t rowGrain(std::size_t cols);

/**
 * Static cost-model weights the per-op profiler (obs::Profiler) uses to
 * derive roofline-style FLOP and byte estimates from op shapes.
 * Centralized next to the kernels they describe so estimate drift is
 * caught where the implementation changes.
 */
namespace cost {

/** Bytes per tensor element (everything here is float32). */
inline constexpr std::uint64_t kElemBytes = sizeof(float);

/** FLOPs charged per expf evaluation (softmax, product-complement). */
inline constexpr std::uint64_t kExpFlops = 8;

/**
 * Taylor-series products one expm evaluation performs (degree 18; see
 * autodiff/matexp.cpp). Each is sparse A times dense A^k: 2 nnz(A) d.
 */
inline constexpr std::uint64_t kExpmSeriesProducts = 17;

/**
 * Dense d x d squarings charged per expm evaluation. The real count
 * is ceil(log2(||A||_inf / 0.5)), known only at run time; SmoothE's
 * penalty matrices (||A||_inf about 2-4) take 2-4, and the
 * kernel.matexp.squarings counter reports the measured total.
 */
inline constexpr std::uint64_t kExpmSquarings = 3;

/** FLOPs of an m x k by k x n matmul (one multiply + one add per MAC). */
inline constexpr std::uint64_t
matmulFlops(std::uint64_t m, std::uint64_t k, std::uint64_t n)
{
    return 2 * m * k * n;
}

} // namespace cost

/** Runs body over grain-sized chunks of [0, n) on the global pool. */
void parallelChunks(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>&
                        body);

/** out = a + b (same shape). */
void addInto(const Tensor& a, const Tensor& b, Tensor& out);
/** out = a - b (same shape). */
void subInto(const Tensor& a, const Tensor& b, Tensor& out);
/** out = a * b elementwise (same shape). */
void mulInto(const Tensor& a, const Tensor& b, Tensor& out);
/** out = alpha * a. */
void scaleInto(const Tensor& a, float alpha, Tensor& out);
/** out = a + alpha. */
void addScalarInto(const Tensor& a, float alpha, Tensor& out);
/** out = max(a, 0). */
void reluInto(const Tensor& a, Tensor& out);
/** out = a * c elementwise; c may broadcast 1 x C over rows. */
void mulConstInto(const Tensor& a, const Tensor& c, Tensor& out);
/** out = a + c elementwise; c may broadcast 1 x C over rows. */
void addConstInto(const Tensor& a, const Tensor& c, Tensor& out);
/**
 * Fused elementwise chain: applies the stages to each element in
 * recorded order, every stage computed with the same single rounded
 * float operation as its unfused counterpart, so fusion of any length
 * is bitwise invisible. (The build uses no -march/-ffp-contract flags,
 * so the compiler cannot contract a multiply-add pair into an FMA; the
 * Program parity tests pin this.)
 */
void elemChainInto(const Tensor& a, const std::vector<ElemStage>& stages,
                   Tensor& out);
/**
 * Backward of elemChainInto: ga += g times the chain's constant diagonal
 * Jacobian. The Scale/MulConst stages apply in reverse order, each with
 * the one rounded multiply of its unfused backward step; the Add stages
 * have an identity Jacobian and are skipped. The product is added into
 * ga once, so the result is bitwise equal to the unfused backward steps
 * accumulating through freshly zeroed grad slots.
 */
void elemChainGradInto(const Tensor& g, const std::vector<ElemStage>& stages,
                       Tensor& ga);
/** out[b, 0] = sum_i a[b, i] * u[i]. */
void dotRowsInto(const Tensor& a, const std::vector<float>& u, Tensor& out);
/** out[0, 0] = sum of all elements (double accumulator, serial). */
void sumAllInto(const Tensor& a, Tensor& out);
/** out[0, :] = column-wise mean over rows (zeroes out first). */
void meanRowsInto(const Tensor& a, Tensor& out);
/** Softmax within each column segment, per batch row. */
void segmentSoftmaxInto(const Tensor& a, const SegmentIndex& segs,
                        Tensor& out);
/** out[b, s] = prod_{k in segment s} (1 - a[b, items[k]]). */
void segmentProductComplementInto(const Tensor& a, const SegmentIndex& segs,
                                  Tensor& out);
/**
 * Backward of segmentProductComplementInto: for each segment s and its
 * items e in order, ga[b, items[e]] += g[b, s] * -prod_{k != e}
 * (1 - x[b, items[k]]), from prefix and suffix products. With AVX2,
 * groups of 8 rows run as seed lanes on scratch (grown to
 * segmentProductComplementGradScratch() floats if smaller); the
 * remaining rows run the scalar loop. Bit-identical at both SIMD levels
 * and at every thread count.
 */
void segmentProductComplementGradInto(const Tensor& x,
                                      const SegmentIndex& segs,
                                      const Tensor& g, Tensor& ga,
                                      std::vector<float>& scratch);
/** Floats of scratch segmentProductComplementGradInto uses on an x of
 *  rows x cols. */
std::size_t segmentProductComplementGradScratch(std::size_t rows,
                                                std::size_t cols,
                                                const SegmentIndex& segs);
/**
 * out[b, s] = max over segment s; arg_out records the argmax column per
 * (row, segment), UINT32_MAX for empty segments.
 */
void segmentMaxGatherInto(const Tensor& a, const SegmentIndex& segs,
                          Tensor& out,
                          std::vector<std::uint32_t>& arg_out);
/** out[b, i] = a[b, index[i]]. */
void gatherColsInto(const Tensor& a,
                    const std::vector<std::uint32_t>& index, Tensor& out);
/** Dense matmul a (B x K) times w (K x H) into out (zeroes out first). */
void matmulInto(const Tensor& a, const Tensor& w, Tensor& out);
/** out[b, :] = a[b, :] + bias[0, :]. */
void addRowBroadcastInto(const Tensor& a, const Tensor& bias, Tensor& out);
/**
 * Scatter into per-row d x d matrices (zeroes out first):
 * out[r, e.position] += a[r, e.column]; with mean_over_rows the result
 * is one row-averaged matrix.
 */
void scatterMatrixInto(const Tensor& a,
                       const std::vector<MatrixEntry>& entries,
                       std::size_t dim, bool mean_over_rows, Tensor& out);

} // namespace smoothe::tensor

#endif // SMOOTHE_TENSOR_KERNELS_HPP
