/**
 * @file
 * Single-op executors shared by the recording Tape and the compiled
 * Program.
 *
 * forwardOp/backwardOp take an OpNode plus resolved tensor pointers and
 * run exactly one operation. The Tape resolves pointers into its
 * per-node tensors; the Program resolves them into its static buffer
 * plan. Because both funnel through these two functions (and the
 * tensor::*Into kernels they call), replay is bit-identical to a Tape
 * rebuild at every thread count — the reference the parity tests
 * compare against.
 */

#ifndef SMOOTHE_AUTODIFF_EXEC_HPP
#define SMOOTHE_AUTODIFF_EXEC_HPP

#include <cstdint>
#include <vector>

#include "autodiff/ops.hpp"

namespace smoothe::ad::exec {

/** Resolved operands for one forward op. */
struct ForwardArgs
{
    const OpNode& node;
    const Tensor* a = nullptr;  ///< value(in0), null for sources
    const Tensor* b = nullptr;  ///< value(in1), null for unary ops
    Tensor* value = nullptr;    ///< destination (correctly shaped)
    Tensor* saved = nullptr;    ///< op-specific stash (TrExpm: expm rows)
    std::vector<std::uint32_t>* savedIdx = nullptr; ///< segment argmax
};

/**
 * Executes one forward op into args.value. Sources (Leaf, Constant,
 * Input) are no-ops — their value is bound, not computed.
 */
void forwardOp(const ForwardArgs& args);

/** Resolved operands for one backward op. */
struct BackwardArgs
{
    const OpNode& node;
    const Tensor& g;            ///< incoming gradient of the node
    const Tensor* a = nullptr;  ///< value(in0) where the op needs it
    const Tensor* b = nullptr;  ///< value(in1) where the op needs it
    const Tensor* value = nullptr; ///< the node's own forward value
    const Tensor* saved = nullptr;
    const std::vector<std::uint32_t>* savedIdx = nullptr;
    /** Kernel scratch (SegmentProductComplement); grown if too small. */
    std::vector<float>* scratch = nullptr;
    Tensor* ga = nullptr;       ///< grad(in0) accumulator; null = skip side
    Tensor* gb = nullptr;       ///< grad(in1) accumulator; null = skip side
};

/**
 * Accumulates one op's input gradients. A null ga/gb skips that side —
 * the Program passes null for inputs that provably need no gradient
 * (constants, inputs, subgraphs unreachable from a Param). Leaf adds g
 * into its Param::grad; Constant/Input are no-ops.
 */
void backwardOp(const BackwardArgs& args);

} // namespace smoothe::ad::exec

#endif // SMOOTHE_AUTODIFF_EXEC_HPP
