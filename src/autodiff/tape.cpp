#include "autodiff/tape.hpp"

#include <cmath>
#include <sstream>

#include "autodiff/exec.hpp"
#include "check/contracts.hpp"
#include "obs/metrics.hpp"

namespace smoothe::ad {

void
Tape::clear()
{
    nodes_.clear();
}

const Tensor&
Tape::value(VarId id) const
{
    return nodes_[static_cast<std::size_t>(id)].value;
}

const Tensor&
Tape::grad(VarId id) const
{
    return nodes_[static_cast<std::size_t>(id)].grad;
}

VarId
Tape::push(Node node)
{
    // Every tape node funnels through here; cache the metric refs so the
    // per-node cost is two relaxed atomic adds.
    static obs::Counter& nodeCount = obs::counter("tape.nodes");
    static obs::Counter& byteCount = obs::counter("tape.bytes");
    nodeCount.add(1);
    byteCount.add(node.value.size() * sizeof(float));
    nodes_.push_back(std::move(node));
    return static_cast<VarId>(nodes_.size() - 1);
}

Tensor&
Tape::ensureGrad(VarId id)
{
    Node& node = nodes_[static_cast<std::size_t>(id)];
    if (node.grad.empty())
        node.grad = Tensor(node.value.rows(), node.value.cols(), arena_);
    return node.grad;
}

void
Tape::compute(Node& node)
{
    exec::ForwardArgs args{node};
    args.a = node.in0 >= 0
                 ? &nodes_[static_cast<std::size_t>(node.in0)].value
                 : nullptr;
    args.b = node.in1 >= 0
                 ? &nodes_[static_cast<std::size_t>(node.in1)].value
                 : nullptr;
    args.value = &node.value;
    args.saved = &node.saved;
    args.savedIdx = &node.savedIdx;
    exec::forwardOp(args);
}

VarId
Tape::leaf(Param* param)
{
    SMOOTHE_CHECK(param != nullptr, "leaf() needs a Param");
    Node node;
    node.op = Op::Leaf;
    node.param = param;
    node.value = param->value;
    return push(std::move(node));
}

VarId
Tape::constant(Tensor value)
{
    Node node;
    node.op = Op::Constant;
    node.value = std::move(value);
    return push(std::move(node));
}

VarId
Tape::input(Tensor value, std::string name)
{
    SMOOTHE_CHECK(!name.empty(), "input() needs a slot name");
    Node node;
    node.op = Op::Input;
    node.inputName = std::move(name);
    node.value = std::move(value);
    return push(std::move(node));
}

VarId
Tape::add(VarId a, VarId b)
{
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    SMOOTHE_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                   "add: %zux%zu vs %zux%zu", av.rows(), av.cols(),
                   bv.rows(), bv.cols());
    Node node;
    node.op = Op::Add;
    node.in0 = a;
    node.in1 = b;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::sub(VarId a, VarId b)
{
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    SMOOTHE_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                   "sub: %zux%zu vs %zux%zu", av.rows(), av.cols(),
                   bv.rows(), bv.cols());
    Node node;
    node.op = Op::Sub;
    node.in0 = a;
    node.in1 = b;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::mul(VarId a, VarId b)
{
    const Tensor& av = value(a);
    const Tensor& bv = value(b);
    SMOOTHE_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                   "mul: %zux%zu vs %zux%zu", av.rows(), av.cols(),
                   bv.rows(), bv.cols());
    Node node;
    node.op = Op::Mul;
    node.in0 = a;
    node.in1 = b;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::scale(VarId a, float alpha)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::Scale;
    node.in0 = a;
    node.alpha = alpha;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::addScalar(VarId a, float alpha)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::AddScalar;
    node.in0 = a;
    node.alpha = alpha;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::relu(VarId a)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::Relu;
    node.in0 = a;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::mulConst(VarId a, Tensor c)
{
    const Tensor& av = value(a);
    SMOOTHE_ASSERT(c.cols() == av.cols() &&
                       (c.rows() == av.rows() || c.rows() == 1),
                   "mulConst: %zux%zu against %zux%zu", c.rows(), c.cols(),
                   av.rows(), av.cols());
    Node node;
    node.op = Op::MulConst;
    node.in0 = a;
    node.constTensor = std::move(c);
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::addConst(VarId a, Tensor c)
{
    const Tensor& av = value(a);
    SMOOTHE_ASSERT(c.cols() == av.cols() &&
                       (c.rows() == av.rows() || c.rows() == 1),
                   "addConst: %zux%zu against %zux%zu", c.rows(), c.cols(),
                   av.rows(), av.cols());
    Node node;
    node.op = Op::AddConst;
    node.in0 = a;
    node.constTensor = std::move(c);
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::dotRowsConst(VarId a, std::vector<float> u)
{
    const Tensor& av = value(a);
    SMOOTHE_ASSERT(u.size() == av.cols(),
                   "dotRowsConst: %zu weights for %zu cols", u.size(),
                   av.cols());
    Node node;
    node.op = Op::DotRowsConst;
    node.in0 = a;
    node.constVec = std::move(u);
    node.value = Tensor(av.rows(), 1, arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::sumAll(VarId a)
{
    Node node;
    node.op = Op::SumAll;
    node.in0 = a;
    node.value = Tensor(1, 1, arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::meanRows(VarId a)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::MeanRows;
    node.in0 = a;
    node.value = Tensor(1, av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::segmentSoftmax(VarId a, const SegmentIndex* segs)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::SegmentSoftmax;
    node.in0 = a;
    node.segs = segs;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::segmentProductComplement(VarId a, const SegmentIndex* segs)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::SegmentProductComplement;
    node.in0 = a;
    node.segs = segs;
    node.value = Tensor(av.rows(), segs->numSegments(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::segmentMaxGather(VarId a, const SegmentIndex* segs)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::SegmentMaxGather;
    node.in0 = a;
    node.segs = segs;
    node.value = Tensor(av.rows(), segs->numSegments(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::gatherCols(VarId a, const std::vector<std::uint32_t>* index)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::GatherCols;
    node.in0 = a;
    node.index = index;
    node.value = Tensor(av.rows(), index->size(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::matmul(VarId a, VarId w)
{
    const Tensor& av = value(a);
    const Tensor& wv = value(w);
    SMOOTHE_ASSERT(av.cols() == wv.rows(), "matmul: %zu cols times %zu rows",
                   av.cols(), wv.rows());
    Node node;
    node.op = Op::MatMul;
    node.in0 = a;
    node.in1 = w;
    node.value = Tensor(av.rows(), wv.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::addRowBroadcast(VarId a, VarId bias)
{
    const Tensor& av = value(a);
    const Tensor& bv = value(bias);
    SMOOTHE_ASSERT(bv.rows() == 1 && bv.cols() == av.cols(),
                   "addRowBroadcast: bias %zux%zu for %zu cols", bv.rows(),
                   bv.cols(), av.cols());
    Node node;
    node.op = Op::AddRowBroadcast;
    node.in0 = a;
    node.in1 = bias;
    node.value = Tensor(av.rows(), av.cols(), arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::scatterMatrix(VarId a, const std::vector<MatrixEntry>* entries,
                    std::size_t dim, bool mean_over_rows)
{
    const Tensor& av = value(a);
    Node node;
    node.op = Op::ScatterMatrix;
    node.in0 = a;
    node.entries = entries;
    node.dim = dim;
    node.meanOverRows = mean_over_rows;
    const std::size_t outRows = mean_over_rows ? 1 : av.rows();
    node.value = Tensor(outRows, dim * dim, arena_);
    compute(node);
    return push(std::move(node));
}

VarId
Tape::trExpm(VarId a, std::size_t dim)
{
    const Tensor& av = value(a);
    SMOOTHE_ASSERT(av.cols() == dim * dim, "trExpm: %zu cols is not %zu^2",
                   av.cols(), dim);
    Node node;
    node.op = Op::TrExpm;
    node.in0 = a;
    node.dim = dim;
    node.value = Tensor(av.rows(), 1, arena_);
    node.saved = Tensor(av.rows(), dim * dim, arena_);
    compute(node);
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
    auto shape = [](const Tensor& t) {
        return std::to_string(t.rows()) + "x" + std::to_string(t.cols());
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
        const bool needsIn0 = node.op != Op::Leaf &&
                              node.op != Op::Constant &&
                              node.op != Op::Input;
        if (needsIn0 && node.in0 < 0)
            return problem(i, "operation is missing its input");
        const bool needsIn1 = node.op == Op::Add || node.op == Op::Sub ||
                              node.op == Op::Mul || node.op == Op::MatMul ||
                              node.op == Op::AddRowBroadcast;
        if (needsIn1 && node.in1 < 0)
            return problem(i, "binary operation is missing input 1");

        const Tensor* a = node.in0 >= 0
                              ? &nodes_[static_cast<std::size_t>(node.in0)]
                                     .value
                              : nullptr;
        const Tensor* b = node.in1 >= 0
                              ? &nodes_[static_cast<std::size_t>(node.in1)]
                                     .value
                              : nullptr;

        // Per-op operand presence and shape consistency.
        switch (node.op) {
          case Op::Leaf:
            if (node.param == nullptr)
                return problem(i, "leaf without a Param");
            break;
          case Op::Constant:
            break;
          case Op::Input:
            if (node.inputName.empty())
                return problem(i, "input slot without a name");
            break;
          case Op::Add:
          case Op::Sub:
          case Op::Mul:
            if (a->rows() != b->rows() || a->cols() != b->cols())
                return problem(i, "elementwise operands " + shape(*a) +
                                      " vs " + shape(*b));
            break;
          case Op::SegmentSoftmax:
          case Op::SegmentProductComplement:
          case Op::SegmentMaxGather:
            if (node.segs == nullptr)
                return problem(i, "segment op without a SegmentIndex");
            if (node.value.rows() != a->rows())
                return problem(i, "segment op changed the batch size");
            break;
          case Op::GatherCols:
            if (node.index == nullptr)
                return problem(i, "gather without an index");
            if (node.value.cols() != node.index->size())
                return problem(i, "gather output has " +
                                      std::to_string(node.value.cols()) +
                                      " cols for " +
                                      std::to_string(node.index->size()) +
                                      " indices");
            break;
          case Op::MatMul:
            if (a->cols() != b->rows())
                return problem(i, "matmul operands " + shape(*a) + " x " +
                                      shape(*b));
            if (node.value.rows() != a->rows() ||
                node.value.cols() != b->cols())
                return problem(i, "matmul output " + shape(node.value));
            break;
          case Op::ScatterMatrix:
            if (node.entries == nullptr)
                return problem(i, "scatter without entries");
            if (node.value.cols() != node.dim * node.dim)
                return problem(i, "scatter output is not dim^2 wide");
            break;
          case Op::TrExpm:
            if (a->cols() != node.dim * node.dim)
                return problem(i, "trExpm input is not dim^2 wide");
            if (node.value.cols() != 1)
                return problem(i, "trExpm output is not a column");
            break;
          case Op::DotRowsConst:
            if (node.constVec.size() != a->cols())
                return problem(i, "dotRows weight length mismatch");
            break;
          default:
            // Same-shape unary ops.
            if (a != nullptr && (node.value.rows() != a->rows() ||
                                 node.value.cols() != a->cols()) &&
                node.op != Op::SumAll && node.op != Op::MeanRows)
                return problem(i, "unary op output " + shape(node.value) +
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
    SMOOTHE_DCHECK_OK(checkInvariants(/*screen_values=*/true));
    obs::counter("tape.backward.calls").add(1);
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
    args.savedIdx = &node.savedIdx;
    args.scratch = &scratch_;
    args.ga = node.in0 >= 0 ? &ensureGrad(node.in0) : nullptr;
    args.gb = node.in1 >= 0 ? &ensureGrad(node.in1) : nullptr;
    exec::backwardOp(args);
}

} // namespace smoothe::ad
