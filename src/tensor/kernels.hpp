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
 * Elementwise kernels: addInto/mulInto for two variable operands,
 * reluInto, and elemChainInto/elemChainGradInto, the one kernel pair
 * for every constant-operand step (scale, add scalar, multiply or add a
 * constant tensor), one stage per call.
 *
 * Determinism contract (see DESIGN.md "Parallel execution"): chunk
 * grains are fixed constants, each output element is written by exactly
 * one task, and in-chunk loop order matches the serial code, so results
 * are bit-identical for every thread count.
 *
 * Buffer-reuse contract: kernels either write every output element
 * unconditionally or zero the destination themselves (matmulInto,
 * scatterMatrixInto, and segmentSoftmaxInto when the segments do not
 * cover every column), so replaying into a dirty buffer
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
 * Stage kinds of the one constant-operand elementwise op: the Tape
 * records each scale/addScalar/mulConst/addConst as one stage. All four
 * have constant Jacobians, so the backward pass never reads the op's
 * input or output values.
 */
enum class ElemStageKind : std::uint8_t {
    Scale,     ///< v = alpha * v
    AddScalar, ///< v = v + alpha
    MulConst,  ///< v = v * c[i]   (c may broadcast 1 x C over rows)
    AddConst,  ///< v = v + c[i]   (c may broadcast 1 x C over rows)
};

/** One constant-operand elementwise step. */
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

/** FLOPs charged per expf evaluation (segment softmax). */
inline constexpr std::uint64_t kExpFlops = 8;

/**
 * Sparse-by-dense products charged per expm evaluation, each 2 nnz(A) d
 * flops (see autodiff/matexp.cpp). The real count is the Taylor degree
 * m minus one, chosen at run time from ||A||_inf (m = 29 at norm 3, 54
 * at norm 9). This is a typical count: per-graph mean degrees on the
 * paper-scale cyclic graphs run 19-54, 31 on average. The
 * kernel.matexp.terms counter reports the measured total.
 */
inline constexpr std::uint64_t kExpmSeriesProducts = 30;

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
/** out = a * b elementwise (same shape). */
void mulInto(const Tensor& a, const Tensor& b, Tensor& out);
/** out = max(a, 0). */
void reluInto(const Tensor& a, Tensor& out);
/**
 * Elementwise chain stage: out = stage(a), one rounded float operation
 * per element.
 */
void elemChainInto(const Tensor& a, const ElemStage& stage, Tensor& out);
/**
 * Backward of elemChainInto: ga += g times the stage's constant diagonal
 * Jacobian. Scale/MulConst round the multiply and the add apart (the
 * build uses no -mfma/-ffp-contract flags, so the compiler cannot
 * contract them into an FMA); the Add stages have an identity Jacobian
 * and add g itself.
 */
void elemChainGradInto(const Tensor& g, const ElemStage& stage, Tensor& ga);
/** out[b, 0] = sum_i a[b, i] * u[i]. */
void dotRowsInto(const Tensor& a, const std::vector<float>& u, Tensor& out);
/** out[0, 0] = sum of all elements (double accumulator, serial). */
void sumAllInto(const Tensor& a, Tensor& out);
/** Softmax within each column segment, per batch row. */
void segmentSoftmaxInto(const Tensor& a, const SegmentIndex& segs,
                        Tensor& out);
/**
 * Parent-correlation assumption of phi's probability propagation
 * (Section 3.3): how the probability that an e-class is chosen combines
 * its parents' probabilities.
 */
enum class Assumption : std::uint8_t {
    Independent, ///< 1 - prod(1 - p_parent)          (Eq. 6)
    Correlated,  ///< max(p_parent)                   (Eq. 7)
    Hybrid,      ///< average of the two              (default)
};

/**
 * The structure phi's propagation runs over. The pointers are borrowed
 * and must outlive every kernel call (and recorded op) that uses them.
 */
struct PropagateSpec
{
    const std::vector<std::uint32_t>* node2class = nullptr; ///< node -> class
    const SegmentIndex* parents = nullptr; ///< class -> parent nodes
    std::uint32_t root = 0;                ///< pinned to probability 1
    std::size_t rounds = 0;
    Assumption assumption = Assumption::Hybrid;

    std::size_t numNodes() const { return node2class->size(); }
    std::size_t numClasses() const { return parents->numSegments(); }
};

/**
 * Columns per batch row of propagateInto's saved state: q of every
 * round, then, under Correlated and Hybrid, the argmax of every round.
 */
std::size_t propagateSavedCols(const PropagateSpec& spec);
/** Columns per batch row of the scratch both propagate kernels use. */
std::size_t propagateScratchCols(const PropagateSpec& spec);

/**
 * Phi's probability propagation (Eqs. 5-7) from the conditional
 * probabilities cp (B x N) into p (B x N). q starts as the root one-hot;
 * each of spec.rounds rounds computes p = cp * q[class], combines every
 * class's parent probabilities under spec.assumption, and pins the root
 * to 1 (q = combined * notRoot + rootMask). The output is
 * p = cp * q[class] of the last q.
 *
 * Seeds run in groups of 8 in seed-lane layout: node-major with the 8
 * seeds of a node adjacent, so every parent read is one contiguous
 * load. Each group is one pool task, runs every round, and writes only
 * its own rows of p, saved (B x propagateSavedCols) and scratch. The
 * last B mod 8 seeds form a narrower group. Every float operation is
 * the one the unrolled per-round ops (gather, mul, product-complement,
 * max, elementwise chains) performed, in the same order, so results are
 * bitwise equal to them at both SIMD levels and every thread count.
 * scratch may be any shape holding at least B x propagateScratchCols
 * floats.
 */
void propagateInto(const Tensor& cp, const PropagateSpec& spec, Tensor& p,
                   Tensor& saved, Tensor& scratch);

/**
 * Backward of propagateInto: gcp += dL/dcp given g = dL/dp, from the q
 * and argmax propagateInto saved (p is recomputed as cp * q[class]).
 * Accumulates in the unrolled ops' order: the final p term first, then
 * rounds T-1 ... 0; within a round all max contributions to dL/dp
 * before all product-complement ones, each by ascending class and
 * parent position.
 */
void propagateGradInto(const Tensor& cp, const PropagateSpec& spec,
                       const Tensor& g, const Tensor& saved, Tensor& gcp,
                       Tensor& scratch);

/** q after the last round (B x numClasses), read from saved state. */
void propagatedClassesInto(const PropagateSpec& spec, const Tensor& saved,
                           Tensor& q);

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
