/**
 * @file
 * Reverse-mode automatic differentiation over batched tensors.
 *
 * The Tape records a forward computation as a sequence of operation nodes
 * and replays it in reverse to accumulate gradients into leaf Params
 * (define-by-run, like PyTorch); Params live outside the tape and persist
 * across steps. The tape is also the recording front-end for the compiled
 * Program (src/autodiff/program.hpp): record the structurally stable
 * iteration graph once, hand the tape to Program, and replay it with a
 * static buffer plan instead of rebuilding every step. SmoothE runs only
 * the replay; Tape::backward stays as the reference that gradcheck, the
 * Program parity tests and bench_micro_kernels compare it against.
 *
 * The op set is deliberately tailored to what SmoothE and the MLP cost
 * model need: elementwise arithmetic, segment softmax (per-e-class),
 * segment product/max over parent lists (the phi propagation of
 * Section 3.3), gathers, dense matmul, and tr(exp(A)) with its exact
 * analytic gradient exp(A)^T (Section 3.4).
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

    /**
     * Deep structural validator (see DESIGN.md "Correctness tooling"):
     * every node's inputs must precede it (the tape is its own
     * topological order), per-op operand pointers must be present, and
     * recorded shapes must be consistent with what the op computes from
     * its inputs. With screen_values, additionally scans every forward
     * value for NaN/Inf — SMOOTHE_DEBUG_INVARIANTS builds run this at
     * the head of backward().
     * @return std::nullopt when healthy, else the first problem found.
     */
    std::optional<std::string>
    checkInvariants(bool screen_values = false) const;

    /** The forward value of a node. */
    const Tensor& value(VarId id) const;

    /** The gradient of a node (valid after backward()). */
    const Tensor& grad(VarId id) const;

    // --- graph construction -------------------------------------------

    /** Leaf referencing a persistent Param; backward adds into its grad. */
    VarId leaf(Param* param);

    /** Constant (no gradient flows into it). */
    VarId constant(Tensor value);

    /**
     * Named mutable input slot (no gradient flows into it). On the tape
     * it behaves like a constant; a compiled Program exposes it via
     * Program::setInputScalar so per-iteration dynamic values (the
     * lambda warmup ramp) can change without re-recording.
     */
    VarId input(Tensor value, std::string name);

    /** out = a + b (same shape). */
    VarId add(VarId a, VarId b);
    /** out = a - b (same shape). */
    VarId sub(VarId a, VarId b);
    /** out = a * b elementwise (same shape). */
    VarId mul(VarId a, VarId b);
    /** out = alpha * a. */
    VarId scale(VarId a, float alpha);
    /** out = a + alpha. */
    VarId addScalar(VarId a, float alpha);
    /** out = max(a, 0). */
    VarId relu(VarId a);
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

    /** out = column-wise mean over rows; B x C -> 1 x C. */
    VarId meanRows(VarId a);

    /**
     * Softmax within each column segment, per batch row.
     * segs partitions the columns of a (e-class -> member e-nodes).
     * Lifetime: segs must outlive the tape.
     */
    VarId segmentSoftmax(VarId a, const SegmentIndex* segs);

    /**
     * out[b, s] = prod_{k in segment s} (1 - a[b, items[k]]).
     * Empty segments yield 1. Input B x N, output B x S.
     */
    VarId segmentProductComplement(VarId a, const SegmentIndex* segs);

    /**
     * out[b, s] = max_{k in segment s} a[b, items[k]].
     * Empty segments yield 0. Gradient flows to the argmax only.
     */
    VarId segmentMaxGather(VarId a, const SegmentIndex* segs);

    /** out[b, i] = a[b, index[i]]; B x M -> B x N column gather. */
    VarId gatherCols(VarId a, const std::vector<std::uint32_t>* index);

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
     * is all-ones. Accumulates into every reachable leaf's Param::grad.
     */
    void backward(VarId root);

  private:
    /** Recorded op metadata plus the eager per-node tensors. */
    struct Node : OpNode
    {
        Tensor value;
        Tensor grad;
        Tensor saved;                    ///< op-specific (e.g. expm output)
        std::vector<std::uint32_t> savedIdx; ///< e.g. segment argmax
    };

    VarId push(Node node);
    Tensor& ensureGrad(VarId id);
    /** Runs the node's forward kernel into node.value via exec::forwardOp. */
    void compute(Node& node);
    void backwardNode(Node& node);

    /** Test-only backdoor used to corrupt state and prove the validator
     *  catches it (tests/test_check.cpp). */
    friend struct TapeTestPeer;
    /** The compiled replayer steals the recorded node list wholesale. */
    friend class Program;

    Arena* arena_;
    std::vector<Node> nodes_;
    /** Backward kernel scratch shared by all nodes (grown on demand). */
    std::vector<float> scratch_;
};

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_TAPE_HPP
