/**
 * @file
 * Reverse-mode automatic differentiation over batched tensors.
 *
 * The Tape records a forward computation as a sequence of operation nodes
 * and replays it in reverse to accumulate gradients into leaf Params
 * (define-by-run, like PyTorch); Params live outside the tape and persist
 * across steps. Recording stores shapes only: an op method validates its
 * operand shapes and appends a node, with no allocation and no kernel
 * call. value() and backward() first evaluate every node not yet
 * evaluated, in id order, through exec::forwardOp.
 *
 * The tape is also the recording front-end for the compiled Program
 * (src/autodiff/program.hpp): record the structurally stable iteration
 * graph once, hand the tape to Program, and replay it with a static
 * buffer plan instead of rebuilding every step. SmoothE runs only the
 * replay, so its recordings never compute a value; Tape::backward stays
 * as the reference that gradcheck, the Program parity tests and
 * bench_micro_kernels compare it against.
 *
 * The op set is deliberately tailored to what SmoothE and the MLP cost
 * model need: elementwise add/mul/relu, one elementwise op for every
 * constant-operand step (each scale/addScalar/mulConst/addConst call
 * records one FusedElemChain node holding one stage), segment softmax
 * (per-e-class),
 * the whole phi propagation of Section 3.3 as one op, dense matmul, and
 * tr(exp(A)) with its exact analytic gradient exp(A)^T (Section 3.4).
 */

#ifndef SMOOTHE_AUTODIFF_TAPE_HPP
#define SMOOTHE_AUTODIFF_TAPE_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "autodiff/ops.hpp"
#include "tensor/tensor.hpp"

namespace smoothe::ad {

/** The reverse-mode tape. */
class Tape
{
  public:
    /** @param arena optional memory accounting for all node tensors */
    explicit Tape(Arena* arena = nullptr) : arena_(arena) {}

    /** Drops all nodes (Params are untouched). */
    void clear();

    std::size_t numNodes() const { return nodes_.size(); }

    /** Recorded output shape of a node (never evaluates). */
    std::size_t rows(VarId id) const { return node(id).rows; }
    std::size_t cols(VarId id) const { return node(id).cols; }

    /**
     * Deep structural validator (see DESIGN.md "Correctness tooling"):
     * every node's inputs must precede it (the tape is its own
     * topological order), per-op operand pointers must be present, and
     * recorded shapes must be consistent with what the op computes from
     * its inputs. With screen_values, additionally scans every evaluated
     * forward value for NaN/Inf — SMOOTHE_DEBUG_INVARIANTS builds run
     * this at the head of backward(), after evaluation.
     * @return std::nullopt when healthy, else the first problem found.
     */
    std::optional<std::string>
    checkInvariants(bool screen_values = false) const;

    /**
     * The forward value of a node. Evaluates every node recorded since
     * the last evaluation first, so the reference is valid until the
     * next op is recorded.
     */
    const Tensor& value(VarId id);

    /** The gradient of a node (valid after backward()). */
    const Tensor& grad(VarId id) const;

    // --- graph construction -------------------------------------------

    /** Leaf referencing a persistent Param; its value is copied when the
     *  tape evaluates, and backward adds into its grad. */
    VarId leaf(Param* param);

    /** Constant (no gradient flows into it). */
    VarId constant(Tensor value);

    /** out = a + b (same shape). */
    VarId add(VarId a, VarId b);
    /** out = a * b elementwise (same shape). */
    VarId mul(VarId a, VarId b);
    /** out = max(a, 0). */
    VarId relu(VarId a);

    // The four constant-operand steps below each record one
    // FusedElemChain node holding one stage.

    /** out = alpha * a. */
    VarId scale(VarId a, float alpha);
    /** out = a + alpha. */
    VarId addScalar(VarId a, float alpha);
    /** out = a * c elementwise with a constant tensor (broadcast 1 x C
     *  over rows allowed). */
    VarId mulConst(VarId a, Tensor c);
    /** out = a + c elementwise with a constant tensor (broadcast 1 x C
     *  over rows allowed). */
    VarId addConst(VarId a, Tensor c);

    /** out[b] = sum_i a[b, i] * u[i]; result is B x 1. */
    VarId dotRowsConst(VarId a, std::vector<float> u);

    /** out = sum of all elements; result is 1 x 1. */
    VarId sumAll(VarId a);

    /**
     * Softmax within each column segment, per batch row.
     * segs partitions the columns of a (e-class -> member e-nodes).
     * Lifetime: segs must outlive the tape.
     */
    VarId segmentSoftmax(VarId a, const SegmentIndex* segs);

    /**
     * Phi's probability propagation (Eqs. 5-7) from the conditional
     * probabilities cp (B x N) to the unconditional node probabilities
     * p (B x N): every round of spec as one op (tensor::propagateInto).
     * Lifetime: spec's structures must outlive the tape.
     */
    VarId propagate(VarId cp, const tensor::PropagateSpec& spec);

    /**
     * Dense matmul: a is B x K, w is K x H; out is B x H.
     * w is a tape node (usually a leaf) so MLP weights are trainable.
     */
    VarId matmul(VarId a, VarId w);

    /** out[b, :] = a[b, :] + bias[0, :]; bias is a 1 x H node. */
    VarId addRowBroadcast(VarId a, VarId bias);

    /**
     * Scatter into per-row d x d matrices:
     * out[r, e.position] += a[r, e.column] for every entry e.
     * When mean_over_rows is set the result is 1 x d^2 (the batched
     * matrix-exponential approximation of Eq. 11), else B x d^2.
     * Lifetime: entries must outlive the tape.
     */
    VarId scatterMatrix(VarId a, const std::vector<MatrixEntry>* entries,
                        std::size_t dim, bool mean_over_rows);

    /**
     * out[r] = tr(exp(M_r)) where row r of a holds a d x d matrix.
     * Exact gradient: dL/dM_r = g_r * exp(M_r)^T.
     */
    VarId trExpm(VarId a, std::size_t dim);

    // --- execution ------------------------------------------------------

    /**
     * Reverse pass from a scalar (1 x 1) or vector node; the seed gradient
     * is all-ones. Evaluates pending nodes first, then accumulates into
     * every reachable leaf's Param::grad.
     */
    void backward(VarId root);

  private:
    /** Recorded op metadata plus the per-node tensors, filled on
     *  evaluation. */
    struct Node : OpNode
    {
        Tensor value;
        Tensor grad;
        Tensor saved; ///< op-specific (expm output, propagation state)
    };

    const Node& node(VarId id) const
    {
        return nodes_[static_cast<std::size_t>(id)];
    }
    /** A node with its op, inputs and output shape set. */
    static Node shaped(Op op, VarId a, VarId b, std::size_t rows,
                       std::size_t cols);
    VarId push(Node node);
    /** Records out = stage(a) as one FusedElemChain node. */
    VarId chainStage(VarId a, tensor::ElemStage stage);
    Tensor& ensureGrad(VarId id);
    /** Evaluates nodes [evaluated_, numNodes()) in id order. */
    void evaluate();
    void backwardNode(Node& node);

    /** Test-only backdoor used to corrupt state and prove the validator
     *  catches it (tests/test_check.cpp). */
    friend struct TapeTestPeer;
    /** The compiled replayer steals the recorded node list wholesale. */
    friend class Program;

    Arena* arena_;
    std::vector<Node> nodes_;
    /** Nodes [0, evaluated_) hold their forward value. */
    std::size_t evaluated_ = 0;
    /** Propagate's kernel scratch, shared by all nodes (grown on
     *  demand). */
    Tensor scratch_;
    /** scratch_ holding at least rows x cols floats. */
    Tensor& scratchFor(std::size_t rows, std::size_t cols);
};

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_TAPE_HPP
