#include "autodiff/tape.hpp"

#include <cmath>
#include <sstream>

#include "autodiff/exec.hpp"
#include "check/contracts.hpp"
#include "obs/metrics.hpp"

namespace smoothe::ad {

namespace {

/** Why `stage` cannot act on a rows x cols operand, if it cannot. */
std::optional<std::string>
stageProblem(const tensor::ElemStage& stage, std::size_t rows,
             std::size_t cols)
{
    const bool holdsConst = stage.kind == tensor::ElemStageKind::MulConst ||
                            stage.kind == tensor::ElemStageKind::AddConst;
    if (!holdsConst) {
        if (!stage.c.empty())
            return std::string("scalar chain stage holds a tensor");
        return std::nullopt;
    }
    if (stage.c.cols() == cols &&
        (stage.c.rows() == rows || stage.c.rows() == 1))
        return std::nullopt;
    std::ostringstream oss;
    oss << "chain stage constant " << stage.c.rows() << "x"
        << stage.c.cols() << " against " << rows << "x" << cols;
    return oss.str();
}

} // namespace

void
Tape::clear()
{
    nodes_.clear();
    evaluated_ = 0;
}

const Tensor&
Tape::value(VarId id)
{
    evaluate();
    return node(id).value;
}

const Tensor&
Tape::grad(VarId id) const
{
    return node(id).grad;
}

Tape::Node
Tape::shaped(Op op, VarId a, VarId b, std::size_t rows, std::size_t cols)
{
    Node node;
    node.op = op;
    node.in0 = a;
    node.in1 = b;
    node.rows = rows;
    node.cols = cols;
    return node;
}

VarId
Tape::push(Node node)
{
    // Every tape node funnels through here; cache the metric refs so the
    // per-node cost is two relaxed atomic adds.
    static obs::Counter& nodeCount = obs::counter("tape.nodes");
    static obs::Counter& byteCount = obs::counter("tape.bytes");
    nodeCount.add(1);
    byteCount.add(node.rows * node.cols * sizeof(float));
    nodes_.push_back(std::move(node));
    return static_cast<VarId>(nodes_.size() - 1);
}

Tensor&
Tape::ensureGrad(VarId id)
{
    Node& node = nodes_[static_cast<std::size_t>(id)];
    if (node.grad.empty())
        node.grad = Tensor(node.rows, node.cols, arena_);
    return node.grad;
}

void
Tape::evaluate()
{
    for (; evaluated_ < nodes_.size(); ++evaluated_) {
        Node& cur = nodes_[evaluated_];
        if (cur.op == Op::Leaf) {
            cur.value = cur.param->value;
            continue;
        }
        if (cur.op == Op::Constant)
            continue; // recorded with its value
        cur.value = Tensor(cur.rows, cur.cols, arena_);
        exec::ForwardArgs args{cur};
        if (cur.op == Op::TrExpm) {
            cur.saved = Tensor(cur.rows, cur.dim * cur.dim, arena_);
        } else if (cur.op == Op::Propagate) {
            cur.saved = Tensor(cur.rows,
                               tensor::propagateSavedCols(cur.propagate),
                               arena_);
            args.scratch = &scratchFor(
                cur.rows, tensor::propagateScratchCols(cur.propagate));
        }
        args.a = cur.in0 >= 0 ? &node(cur.in0).value : nullptr;
        args.b = cur.in1 >= 0 ? &node(cur.in1).value : nullptr;
        args.value = &cur.value;
        args.saved = &cur.saved;
        exec::forwardOp(args);
    }
}

Tensor&
Tape::scratchFor(std::size_t rows, std::size_t cols)
{
    if (scratch_.size() < rows * cols)
        scratch_ = Tensor(rows, cols, arena_);
    return scratch_;
}

VarId
Tape::leaf(Param* param)
{
    SMOOTHE_CHECK(param != nullptr, "leaf() needs a Param");
    Node node = shaped(Op::Leaf, -1, -1, param->value.rows(),
                       param->value.cols());
    node.param = param;
    return push(std::move(node));
}

VarId
Tape::constant(Tensor value)
{
    Node node = shaped(Op::Constant, -1, -1, value.rows(), value.cols());
    node.value = std::move(value);
    return push(std::move(node));
}

VarId
Tape::add(VarId a, VarId b)
{
    SMOOTHE_ASSERT(rows(a) == rows(b) && cols(a) == cols(b),
                   "add: %zux%zu vs %zux%zu", rows(a), cols(a), rows(b),
                   cols(b));
    return push(shaped(Op::Add, a, b, rows(a), cols(a)));
}

VarId
Tape::mul(VarId a, VarId b)
{
    SMOOTHE_ASSERT(rows(a) == rows(b) && cols(a) == cols(b),
                   "mul: %zux%zu vs %zux%zu", rows(a), cols(a), rows(b),
                   cols(b));
    return push(shaped(Op::Mul, a, b, rows(a), cols(a)));
}

VarId
Tape::relu(VarId a)
{
    return push(shaped(Op::Relu, a, -1, rows(a), cols(a)));
}

VarId
Tape::chainStage(VarId a, tensor::ElemStage stage)
{
    SMOOTHE_CHECK_OK(stageProblem(stage, rows(a), cols(a)));
    Node node = shaped(Op::FusedElemChain, a, -1, rows(a), cols(a));
    node.stage = std::move(stage);
    return push(std::move(node));
}

VarId
Tape::scale(VarId a, float alpha)
{
    return chainStage(a, {tensor::ElemStageKind::Scale, alpha, Tensor()});
}

VarId
Tape::addScalar(VarId a, float alpha)
{
    return chainStage(a,
                      {tensor::ElemStageKind::AddScalar, alpha, Tensor()});
}

VarId
Tape::mulConst(VarId a, Tensor c)
{
    return chainStage(a,
                      {tensor::ElemStageKind::MulConst, 0.0f, std::move(c)});
}

VarId
Tape::addConst(VarId a, Tensor c)
{
    return chainStage(a,
                      {tensor::ElemStageKind::AddConst, 0.0f, std::move(c)});
}

VarId
Tape::dotRowsConst(VarId a, std::vector<float> u)
{
    SMOOTHE_ASSERT(u.size() == cols(a),
                   "dotRowsConst: %zu weights for %zu cols", u.size(),
                   cols(a));
    Node node = shaped(Op::DotRowsConst, a, -1, rows(a), 1);
    node.constVec = std::move(u);
    return push(std::move(node));
}

VarId
Tape::sumAll(VarId a)
{
    return push(shaped(Op::SumAll, a, -1, 1, 1));
}

VarId
Tape::segmentSoftmax(VarId a, const SegmentIndex* segs)
{
    Node node = shaped(Op::SegmentSoftmax, a, -1, rows(a), cols(a));
    node.segs = segs;
    return push(std::move(node));
}

VarId
Tape::propagate(VarId cp, const tensor::PropagateSpec& spec)
{
    SMOOTHE_ASSERT(spec.node2class != nullptr && spec.parents != nullptr,
                   "propagate: spec without structure");
    SMOOTHE_ASSERT(spec.numNodes() == cols(cp),
                   "propagate: %zu nodes for %zu cols", spec.numNodes(),
                   cols(cp));
    Node node = shaped(Op::Propagate, cp, -1, rows(cp), cols(cp));
    node.propagate = spec;
    return push(std::move(node));
}

VarId
Tape::matmul(VarId a, VarId w)
{
    SMOOTHE_ASSERT(cols(a) == rows(w), "matmul: %zu cols times %zu rows",
                   cols(a), rows(w));
    return push(shaped(Op::MatMul, a, w, rows(a), cols(w)));
}

VarId
Tape::addRowBroadcast(VarId a, VarId bias)
{
    SMOOTHE_ASSERT(rows(bias) == 1 && cols(bias) == cols(a),
                   "addRowBroadcast: bias %zux%zu for %zu cols", rows(bias),
                   cols(bias), cols(a));
    return push(shaped(Op::AddRowBroadcast, a, bias, rows(a), cols(a)));
}

VarId
Tape::scatterMatrix(VarId a, const std::vector<MatrixEntry>* entries,
                    std::size_t dim, bool mean_over_rows)
{
    Node node = shaped(Op::ScatterMatrix, a, -1,
                       mean_over_rows ? 1 : rows(a), dim * dim);
    node.entries = entries;
    node.dim = dim;
    node.meanOverRows = mean_over_rows;
    return push(std::move(node));
}

VarId
Tape::trExpm(VarId a, std::size_t dim)
{
    SMOOTHE_ASSERT(cols(a) == dim * dim, "trExpm: %zu cols is not %zu^2",
                   cols(a), dim);
    Node node = shaped(Op::TrExpm, a, -1, rows(a), 1);
    node.dim = dim;
    return push(std::move(node));
}

std::optional<std::string>
Tape::checkInvariants(bool screen_values) const
{
    auto problem = [](std::size_t id, const std::string& what)
        -> std::optional<std::string> {
        std::ostringstream oss;
        oss << "tape node " << id << ": " << what;
        return oss.str();
    };
    auto shape = [](const OpNode& n) {
        return std::to_string(n.rows) + "x" + std::to_string(n.cols);
    };

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& node = nodes_[i];

        // Topological order: the tape's construction order is its
        // evaluation order, so inputs must strictly precede users.
        for (VarId in : {node.in0, node.in1}) {
            if (in >= 0 && static_cast<std::size_t>(in) >= i)
                return problem(i, "input " + std::to_string(in) +
                                      " does not precede it");
        }
        const bool needsIn0 =
            node.op != Op::Leaf && node.op != Op::Constant;
        if (needsIn0 && node.in0 < 0)
            return problem(i, "operation is missing its input");
        const bool needsIn1 = node.op == Op::Add || node.op == Op::Mul ||
                              node.op == Op::MatMul ||
                              node.op == Op::AddRowBroadcast;
        if (needsIn1 && node.in1 < 0)
            return problem(i, "binary operation is missing input 1");

        const OpNode* a = node.in0 >= 0 ? &this->node(node.in0) : nullptr;
        const OpNode* b = node.in1 >= 0 ? &this->node(node.in1) : nullptr;

        // Per-op operand presence and shape consistency.
        switch (node.op) {
          case Op::Leaf:
            if (node.param == nullptr)
                return problem(i, "leaf without a Param");
            break;
          case Op::Constant:
            break;
          case Op::Add:
          case Op::Mul:
            if (a->rows != b->rows || a->cols != b->cols)
                return problem(i, "elementwise operands " + shape(*a) +
                                      " vs " + shape(*b));
            break;
          case Op::SegmentSoftmax:
            if (node.segs == nullptr)
                return problem(i, "segment op without a SegmentIndex");
            if (node.rows != a->rows)
                return problem(i, "segment op changed the batch size");
            break;
          case Op::Propagate: {
            const tensor::PropagateSpec& spec = node.propagate;
            if (spec.node2class == nullptr || spec.parents == nullptr)
                return problem(i, "propagate without its structure");
            if (node.rows != a->rows || node.cols != a->cols ||
                node.cols != spec.numNodes())
                return problem(i, "propagate output " + shape(node) +
                                      " for input " + shape(*a) + " over " +
                                      std::to_string(spec.numNodes()) +
                                      " nodes");
            if (spec.root >= spec.numClasses())
                return problem(i, "propagate root is not a class");
            break;
          }
          case Op::MatMul:
            if (a->cols != b->rows)
                return problem(i, "matmul operands " + shape(*a) + " x " +
                                      shape(*b));
            if (node.rows != a->rows || node.cols != b->cols)
                return problem(i, "matmul output " + shape(node));
            break;
          case Op::ScatterMatrix:
            if (node.entries == nullptr)
                return problem(i, "scatter without entries");
            if (node.cols != node.dim * node.dim)
                return problem(i, "scatter output is not dim^2 wide");
            break;
          case Op::TrExpm:
            if (a->cols != node.dim * node.dim)
                return problem(i, "trExpm input is not dim^2 wide");
            if (node.cols != 1)
                return problem(i, "trExpm output is not a column");
            break;
          case Op::DotRowsConst:
            if (node.constVec.size() != a->cols)
                return problem(i, "dotRows weight length mismatch");
            break;
          case Op::FusedElemChain:
            if (auto bad = stageProblem(node.stage, node.rows, node.cols))
                return problem(i, *bad);
            [[fallthrough]];
          default:
            // Same-shape unary ops.
            if (a != nullptr &&
                (node.rows != a->rows || node.cols != a->cols) &&
                node.op != Op::SumAll)
                return problem(i, "unary op output " + shape(node) +
                                      " for input " + shape(*a));
            break;
        }

        if (screen_values) {
            const float* data = node.value.data();
            for (std::size_t k = 0; k < node.value.size(); ++k) {
                if (!std::isfinite(data[k]))
                    return problem(i, "non-finite forward value at flat " +
                                          std::to_string(k));
            }
        }
    }
    return std::nullopt;
}

void
Tape::backward(VarId root)
{
    SMOOTHE_CHECK(root >= 0 && static_cast<std::size_t>(root) < nodes_.size(),
                  "backward: node %d not on this %zu-node tape", root,
                  nodes_.size());
    evaluate();
    SMOOTHE_DCHECK_OK(checkInvariants(/*screen_values=*/true));
    static obs::Counter& calls = obs::counter("tape.backward.calls");
    calls.add(1);
    ensureGrad(root).fill(1.0f);
    for (VarId id = root; id >= 0; --id) {
        Node& node = nodes_[static_cast<std::size_t>(id)];
        if (node.grad.empty())
            continue; // nothing flowed into this node
        backwardNode(node);
    }
}

void
Tape::backwardNode(Node& node)
{
    exec::BackwardArgs args{node, node.grad};
    args.a = node.in0 >= 0
                 ? &nodes_[static_cast<std::size_t>(node.in0)].value
                 : nullptr;
    args.b = node.in1 >= 0
                 ? &nodes_[static_cast<std::size_t>(node.in1)].value
                 : nullptr;
    args.value = &node.value;
    args.saved = &node.saved;
    if (node.op == Op::Propagate)
        args.scratch = &scratchFor(
            node.rows, tensor::propagateScratchCols(node.propagate));
    args.ga = node.in0 >= 0 ? &ensureGrad(node.in0) : nullptr;
    args.gb = node.in1 >= 0 ? &ensureGrad(node.in1) : nullptr;
    exec::backwardOp(args);
}

} // namespace smoothe::ad
