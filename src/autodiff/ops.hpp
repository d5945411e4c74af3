/**
 * @file
 * Shared operation metadata for the autodiff layer.
 *
 * OpNode is the execution-independent description of one recorded
 * operation: which op, which inputs, its output shape, and the constant
 * payload it captured. The recording Tape wraps it with per-node
 * value/grad tensors that it fills only when a value is read; the
 * compiled Program steals the OpNode list wholesale and binds
 * values/grads to a static buffer plan instead. Keeping the
 * metadata in one struct is what lets both share one kernel body per op
 * (src/autodiff/exec.hpp), so a replay matches a Tape rebuild bit for
 * bit. Every constant-operand elementwise step is one FusedElemChain
 * node holding its one stage.
 */

#ifndef SMOOTHE_AUTODIFF_OPS_HPP
#define SMOOTHE_AUTODIFF_OPS_HPP

#include <cstdint>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace smoothe::ad {

using tensor::Arena;
using tensor::SegmentIndex;
using tensor::Tensor;

/** A trainable leaf: value plus accumulated gradient. */
struct Param
{
    Tensor value;
    Tensor grad;

    Param() = default;
    explicit Param(Tensor init)
        : value(std::move(init)), grad(value.rows(), value.cols())
    {}

    /** Clears the accumulated gradient. */
    void zeroGrad() { grad.fill(0.0f); }
};

/** Handle to a recorded node. */
using VarId = std::int32_t;

/** Sparse (node, matrix-position) scatter entries for ScatterMatrix. */
using MatrixEntry = tensor::MatrixEntry;

/**
 * Operation kinds. Leaf/Constant are sources (no compute).
 * FusedElemChain is the one constant-operand elementwise op: the Tape
 * records each scale/addScalar/mulConst/addConst as one node holding
 * one stage (the name is kept for the profiler's "fused_elem_chain").
 * Propagate is phi's probability propagation as one op: its kernels
 * run every round in seed-lane layout and save only q and the argmax
 * of each round.
 */
enum class Op : std::uint8_t {
    Leaf,
    Constant,
    Add,
    Mul,
    Relu,
    DotRowsConst,
    SumAll,
    SegmentSoftmax,
    Propagate, ///< phi's whole propagation (Eqs. 5-7), every round
    MatMul,
    AddRowBroadcast,
    ScatterMatrix,
    TrExpm,
    FusedElemChain, ///< out = stage(a), a constant-Jacobian step
};

/**
 * Execution-independent description of one operation: op kind, input
 * node ids, output shape, and captured constants. The shape is fixed
 * at record time, so the Program compiler plans buffers without any
 * value having been computed.
 */
struct OpNode
{
    Op op = Op::Constant;
    VarId in0 = -1;
    VarId in1 = -1;
    std::size_t rows = 0; ///< output shape
    std::size_t cols = 0;
    Param* param = nullptr;
    const SegmentIndex* segs = nullptr;
    const std::vector<MatrixEntry>* entries = nullptr;
    /** Propagate's structure, round count and assumption. */
    tensor::PropagateSpec propagate;
    std::vector<float> constVec;
    /** FusedElemChain's stage (unused otherwise). */
    tensor::ElemStage stage;
    std::size_t dim = 0;
    bool meanOverRows = false;
};

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_OPS_HPP
