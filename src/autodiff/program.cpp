#include "autodiff/program.hpp"

#include <chrono>
#include <utility>

#include "autodiff/exec.hpp"
#include "check/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

namespace {

std::uint64_t
shapeKey(std::size_t rows, std::size_t cols)
{
    return (static_cast<std::uint64_t>(rows) << 32) |
           static_cast<std::uint64_t>(cols);
}

bool
isSource(Op op)
{
    return op == Op::Leaf || op == Op::Constant || op == Op::Input;
}

} // namespace

const char*
kernelName(Op op)
{
    switch (op) {
      case Op::Leaf:
        return "leaf";
      case Op::Constant:
        return "constant";
      case Op::Input:
        return "input";
      case Op::Add:
        return "add";
      case Op::Sub:
        return "sub";
      case Op::Mul:
        return "mul";
      case Op::Scale:
        return "scale";
      case Op::AddScalar:
        return "add_scalar";
      case Op::Relu:
        return "relu";
      case Op::MulConst:
        return "mul_const";
      case Op::AddConst:
        return "add_const";
      case Op::DotRowsConst:
        return "dot_rows_const";
      case Op::SumAll:
        return "sum_all";
      case Op::MeanRows:
        return "mean_rows";
      case Op::SegmentSoftmax:
        return "segment_softmax";
      case Op::SegmentProductComplement:
        return "segment_product_complement";
      case Op::SegmentMaxGather:
        return "segment_max_gather";
      case Op::GatherCols:
        return "gather_cols";
      case Op::MatMul:
        return "matmul";
      case Op::AddRowBroadcast:
        return "add_row_broadcast";
      case Op::ScatterMatrix:
        return "scatter_matrix";
      case Op::TrExpm:
        return "tr_expm";
      case Op::FusedElemChain:
        return "fused_elem_chain";
    }
    return "unknown";
}

bool
hasSimdVariant(Op op)
{
    switch (op) {
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Scale:
      case Op::AddScalar:
      case Op::Relu:
      case Op::MulConst:
      case Op::AddConst:
      case Op::FusedElemChain:
      case Op::GatherCols:
      case Op::SegmentSoftmax:
      case Op::SegmentProductComplement:
      case Op::SegmentMaxGather:
      case Op::TrExpm:
        return true;
      default:
        return false;
    }
}

bool
hasSimdBackward(Op op)
{
    return op == Op::FusedElemChain || op == Op::SegmentProductComplement;
}

namespace {

/** Static per-execution cost estimate for one op (both phases). */
struct OpCost
{
    std::uint64_t fwdFlops = 0;
    std::uint64_t fwdBytes = 0;
    std::uint64_t bwdFlops = 0;
    std::uint64_t bwdBytes = 0;
};

/**
 * Roofline-style FLOP and bytes-moved estimates from the snapshotted
 * shapes. Counts algorithmic work (one multiply + one add per MAC,
 * tensor::cost::kExpFlops per expf) and compulsory traffic (operands
 * read once, outputs written once, grad accumulators read-modify-
 * written); caches and fused passes make these upper bounds on actual
 * DRAM traffic, which is the convention roofline estimates want.
 */
OpCost
estimateOpCost(const std::vector<OpNode>& ops, std::size_t ix,
               const std::vector<std::size_t>& rowsOf,
               const std::vector<std::size_t>& colsOf)
{
    namespace cost = tensor::cost;
    const OpNode& node = ops[ix];
    auto shapeOf = [&](VarId v, std::uint64_t& r, std::uint64_t& c) {
        r = v >= 0 ? rowsOf[static_cast<std::size_t>(v)] : 0;
        c = v >= 0 ? colsOf[static_cast<std::size_t>(v)] : 0;
    };
    const std::uint64_t rows = rowsOf[ix];
    const std::uint64_t cols = colsOf[ix];
    std::uint64_t aRows = 0;
    std::uint64_t aCols = 0;
    std::uint64_t bRows = 0;
    std::uint64_t bCols = 0;
    shapeOf(node.in0, aRows, aCols);
    shapeOf(node.in1, bRows, bCols);
    const std::uint64_t F = cost::kElemBytes;
    const std::uint64_t n = rows * cols;
    const std::uint64_t a = aRows * aCols;
    const std::uint64_t b = bRows * bCols;
    OpCost c;
    switch (node.op) {
      case Op::Leaf:
        // Forward is a no-op (value aliases the Param); backward does
        // param.grad += g.
        c = {0, 0, n, 3 * F * n};
        break;
      case Op::Constant:
      case Op::Input:
        break;
      case Op::Add:
      case Op::Sub:
        c = {n, F * (a + b + n), 2 * n, 6 * F * n};
        break;
      case Op::Mul:
        c = {n, 3 * F * n, 4 * n, 10 * F * n};
        break;
      case Op::Scale:
        c = {n, 2 * F * n, 2 * n, 3 * F * n};
        break;
      case Op::AddScalar:
        c = {n, 2 * F * n, n, 3 * F * n};
        break;
      case Op::Relu:
        c = {n, 2 * F * n, 2 * n, 4 * F * n};
        break;
      case Op::MulConst:
        c = {n, 3 * F * n, 2 * n, 4 * F * n};
        break;
      case Op::AddConst:
        c = {n, 3 * F * n, n, 3 * F * n};
        break;
      case Op::DotRowsConst:
        c = {2 * a, F * (a + aCols + n), 2 * a,
             F * (2 * a + aCols + n)};
        break;
      case Op::SumAll:
        c = {a, F * a, a, F * a};
        break;
      case Op::MeanRows:
        c = {a + cols, F * (a + cols), a, F * a};
        break;
      case Op::SegmentSoftmax:
        c = {(4 + cost::kExpFlops) * a, 6 * F * a, 6 * a, 6 * F * a};
        break;
      case Op::SegmentProductComplement:
        c = {2 * a, 2 * F * a, 4 * a, 4 * F * a};
        break;
      case Op::SegmentMaxGather:
        c = {a, 2 * F * a, n, 2 * F * a};
        break;
      case Op::GatherCols:
        c = {0, 3 * F * n, n, 3 * F * n};
        break;
      case Op::MatMul: {
        const std::uint64_t flops =
            cost::matmulFlops(aRows, aCols, bCols);
        c = {flops, F * (a + b + n), 2 * flops, 2 * F * (a + b + n)};
        break;
      }
      case Op::AddRowBroadcast:
        c = {n, F * (a + b + n), 2 * n, F * (4 * n + 2 * b)};
        break;
      case Op::ScatterMatrix: {
        const std::uint64_t entries =
            node.entries ? node.entries->size() : 0;
        const std::uint64_t touched = entries * aRows;
        c = {touched, F * (touched + n), touched, F * (touched + n)};
        break;
      }
      case Op::TrExpm: {
        // Series products run over A's stored entries: at most the
        // producing scatter's entry count, else a dense d x d input.
        const std::uint64_t d = node.dim;
        std::uint64_t nnz = d * d;
        if (node.in0 >= 0) {
            const OpNode& in = ops[static_cast<std::size_t>(node.in0)];
            if (in.op == Op::ScatterMatrix && in.entries)
                nnz = std::min<std::uint64_t>(nnz, in.entries->size());
        }
        const std::uint64_t flops =
            rows * (cost::kExpmSeriesProducts * cost::matmulFlops(nnz, 1, d) +
                    cost::kExpmSquarings * cost::matmulFlops(d, d, d));
        const std::uint64_t bytes = rows * 4 * F * d * d;
        c = {flops, bytes, flops, bytes};
        break;
      }
      case Op::FusedElemChain: {
        // One flop per stage per element; const-tensor stages add one
        // operand read each (k covers both, as an upper bound).
        const std::uint64_t k = node.chain.size();
        c = {k * n, F * (2 + k) * n, k * n, F * (2 + k) * n};
        break;
      }
    }
    return c;
}

std::uint64_t
nanosBetween(std::chrono::steady_clock::time_point from,
             std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/**
 * Sizes the backward scratch of `node`, whose first input is rows x
 * cols, so replays never allocate it. Ops that need none keep theirs
 * empty.
 */
void
sizeBackwardScratch(const OpNode& node, std::size_t rows, std::size_t cols,
                    std::vector<float>& scratch)
{
    if (node.op == Op::SegmentProductComplement)
        scratch.resize(tensor::segmentProductComplementGradScratch(
            rows, cols, *node.segs));
}

// --- payload recognition for patch() ----------------------------------
// The structural payloads a SmoothE-style recording captures by value
// are identifiable from their contents alone. The >= 3-column guard
// keeps the two mask patterns disjoint ([1, 0] would match both); a
// payload too small to recognize is simply kept, and the shape-
// compatibility checks decide whether that forces a re-record.

/** 1 x C, exactly one 1.0 against a 0.0 background. */
bool
isMaskOneHot(const Tensor& t)
{
    if (t.rows() != 1 || t.cols() < 3)
        return false;
    std::size_t ones = 0;
    for (std::size_t j = 0; j < t.cols(); ++j) {
        const float v = t.row(0)[j];
        if (v == 1.0f)
            ++ones;
        else if (v != 0.0f)
            return false;
    }
    return ones == 1;
}

/** 1 x C, exactly one 0.0 against a 1.0 background. */
bool
isMaskComplement(const Tensor& t)
{
    if (t.rows() != 1 || t.cols() < 3)
        return false;
    std::size_t zeros = 0;
    for (std::size_t j = 0; j < t.cols(); ++j) {
        const float v = t.row(0)[j];
        if (v == 0.0f)
            ++zeros;
        else if (v != 1.0f)
            return false;
    }
    return zeros == 1;
}

/** R x C, every row exactly one 1.0 against a 0.0 background. */
bool
isOnehotRows(const Tensor& t)
{
    if (t.rows() == 0 || t.cols() < 3)
        return false;
    for (std::size_t r = 0; r < t.rows(); ++r) {
        std::size_t ones = 0;
        for (std::size_t j = 0; j < t.cols(); ++j) {
            const float v = t.row(r)[j];
            if (v == 1.0f)
                ++ones;
            else if (v != 0.0f)
                return false;
        }
        if (ones != 1)
            return false;
    }
    return true;
}

} // namespace

Program::Program(Tape&& tape, VarId root, std::vector<VarId> outputs)
    : arena_(tape.arena_), root_(root)
{
    obs::Span span("program.compile");
    const std::size_t n = tape.nodes_.size();
    SMOOTHE_CHECK(root >= 0 && static_cast<std::size_t>(root) < n,
                  "program: root %d not on this %zu-node tape", root, n);
    SMOOTHE_DCHECK_OK(tape.checkInvariants(/*screen_values=*/false));

    skipped_.assign(n, 0);
    needsGrad_.assign(n, 0);
    valueBind_.assign(n, Binding{});
    gradBind_.assign(n, Binding{});
    saved_.resize(n);
    savedIdx_.resize(n);
    scratch_.resize(n);

    // --- snapshot shapes, steal metadata and payloads -----------------
    // Recorder value tensors are released as soon as their shape is
    // snapshotted so compile-time transient memory never stacks a full
    // eager iteration on top of the plan being built.
    std::vector<std::size_t> rowsOf(n);
    std::vector<std::size_t> colsOf(n);
    ops_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Tape::Node& rec = tape.nodes_[i];
        rowsOf[i] = rec.value.rows();
        colsOf[i] = rec.value.cols();
        ops_.push_back(std::move(static_cast<OpNode&>(rec)));
        saved_[i] = std::move(rec.saved);
        savedIdx_[i] = std::move(rec.savedIdx);
    }

    // The eager baseline re-allocates every value, every grad reachable
    // from the root (through constants too), and every saved stash each
    // iteration; measure it before fusion rewires edges.
    {
        std::vector<char> eagerGrad(n, 0);
        eagerGrad[static_cast<std::size_t>(root_)] = 1;
        for (VarId id = root_; id >= 0; --id) {
            if (!eagerGrad[static_cast<std::size_t>(id)])
                continue;
            const OpNode& node = ops_[static_cast<std::size_t>(id)];
            for (VarId in : {node.in0, node.in1}) {
                if (in >= 0)
                    eagerGrad[static_cast<std::size_t>(in)] = 1;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t valueBytes =
                rowsOf[i] * colsOf[i] * sizeof(float);
            stats_.naiveBytes += valueBytes;
            if (eagerGrad[i])
                stats_.naiveBytes += valueBytes;
            stats_.naiveBytes += saved_[i].size() * sizeof(float);
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        OpNode& node = ops_[i];
        Tape::Node& rec = tape.nodes_[i];
        switch (node.op) {
          case Op::Leaf:
            // Alias the Param so optimizer steps are visible on replay
            // (the eager tape re-copies the value each rebuild).
            valueBind_[i] = {Storage::Param,
                             static_cast<std::uint32_t>(i)};
            break;
          case Op::Constant:
          case Op::Input:
            valueBind_[i] = {Storage::Owned,
                             static_cast<std::uint32_t>(owned_.size())};
            owned_.push_back(std::move(rec.value));
            if (node.op == Op::Input)
                inputs_[node.inputName] = static_cast<VarId>(i);
            break;
          default:
            break;
        }
        rec.value = Tensor();
        rec.grad = Tensor();
    }

    std::vector<char> isOutput(n, 0);
    isOutput[static_cast<std::size_t>(root_)] = 1;
    for (VarId v : outputs) {
        SMOOTHE_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
                      "program: output %d not on the tape", v);
        isOutput[static_cast<std::size_t>(v)] = 1;
    }

    auto countUses = [&] {
        std::vector<std::uint32_t> uses(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (skipped_[i])
                continue;
            if (ops_[i].in0 >= 0)
                ++uses[static_cast<std::size_t>(ops_[i].in0)];
            if (ops_[i].in1 >= 0)
                ++uses[static_cast<std::size_t>(ops_[i].in1)];
        }
        return uses;
    };
    std::vector<std::uint32_t> uses = countUses();

    // --- fusion: collapse single-consumer elementwise chains ----------
    // A run v1 -> v2 -> ... -> vk of constant-Jacobian unary ops
    // (Scale, AddScalar, MulConst, AddConst) fuses into one node on vk
    // when every intermediate has exactly one consumer and is not a
    // requested output. Fusing moves the contribution to the chain
    // input's grad from v1's backward step to vk's, so the fuse is
    // only taken when no other consumer of that input lies strictly
    // between v1 and vk in id order — that keeps the descending-id
    // accumulation order, and therefore the float bits, identical to
    // the unfused Tape. Every run of two or more becomes one
    // FusedElemChain stage program.
    auto isChainOp = [&](std::size_t ix) {
        if (skipped_[ix])
            return false;
        const Op op = ops_[ix].op;
        return op == Op::Scale || op == Op::AddScalar ||
               op == Op::MulConst || op == Op::AddConst;
    };
    std::vector<VarId> onlyUser(n, -1);
    std::vector<char> viaIn0(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (skipped_[j])
            continue;
        if (ops_[j].in0 >= 0) {
            onlyUser[static_cast<std::size_t>(ops_[j].in0)] =
                static_cast<VarId>(j);
            viaIn0[static_cast<std::size_t>(ops_[j].in0)] = 1;
        }
        if (ops_[j].in1 >= 0) {
            onlyUser[static_cast<std::size_t>(ops_[j].in1)] =
                static_cast<VarId>(j);
            viaIn0[static_cast<std::size_t>(ops_[j].in1)] = 0;
        }
    }
    std::vector<char> inChain(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (!isChainOp(i) || inChain[i])
            continue;
        // Grow the maximal run from i (ids ascend along a tape edge, so
        // scanning i in ascending order always lands on a run's head).
        std::vector<std::size_t> chain{i};
        std::size_t cur = i;
        while (uses[cur] == 1 && !isOutput[cur] && viaIn0[cur] &&
               onlyUser[cur] >= 0 &&
               isChainOp(static_cast<std::size_t>(onlyUser[cur]))) {
            cur = static_cast<std::size_t>(onlyUser[cur]);
            chain.push_back(cur);
        }
        for (std::size_t v : chain)
            inChain[v] = 1;
        if (chain.size() < 2)
            continue;
        const VarId input = ops_[chain.front()].in0;
        bool safe = true;
        for (std::size_t j = chain.front() + 1;
             j < chain.back() && safe; ++j) {
            if (skipped_[j])
                continue;
            if (ops_[j].in0 == input || ops_[j].in1 == input)
                safe = false;
        }
        if (!safe)
            continue;
        std::vector<tensor::ElemStage> stages;
        stages.reserve(chain.size());
        for (std::size_t v : chain) {
            OpNode& link = ops_[v];
            tensor::ElemStage stage;
            switch (link.op) {
              case Op::Scale:
                stage.kind = tensor::ElemStageKind::Scale;
                stage.alpha = link.alpha;
                break;
              case Op::AddScalar:
                stage.kind = tensor::ElemStageKind::AddScalar;
                stage.alpha = link.alpha;
                break;
              case Op::MulConst:
                stage.kind = tensor::ElemStageKind::MulConst;
                stage.c = std::move(link.constTensor);
                break;
              case Op::AddConst:
                stage.kind = tensor::ElemStageKind::AddConst;
                stage.c = std::move(link.constTensor);
                break;
              default:
                SMOOTHE_CHECK(false, "non-chain op %d in fusion run",
                              static_cast<int>(link.op));
            }
            stages.push_back(std::move(stage));
        }
        OpNode& last = ops_[chain.back()];
        last.op = Op::FusedElemChain;
        last.chain = std::move(stages);
        last.in0 = input;
        for (std::size_t k = 0; k + 1 < chain.size(); ++k)
            skipped_[chain[k]] = 1;
        stats_.fusedOps += chain.size() - 1;
    }
    if (stats_.fusedOps > 0)
        uses = countUses();

    // --- gradient reachability ----------------------------------------
    // The eager set of grad-carrying nodes, minus the constants/inputs
    // whose backward is a no-op anyway.
    needsGrad_[static_cast<std::size_t>(root_)] = 1;
    for (VarId id = root_; id >= 0; --id) {
        if (!needsGrad_[static_cast<std::size_t>(id)] ||
            skipped_[static_cast<std::size_t>(id)])
            continue;
        const OpNode& node = ops_[static_cast<std::size_t>(id)];
        for (VarId in : {node.in0, node.in1}) {
            if (in < 0)
                continue;
            const Op inOp = ops_[static_cast<std::size_t>(in)].op;
            if (inOp != Op::Constant && inOp != Op::Input)
                needsGrad_[static_cast<std::size_t>(in)] = 1;
        }
    }

    // --- persistence: values the backward pass reads ------------------
    std::vector<char> persistent(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (isOutput[i])
            persistent[i] = 1;
        if (skipped_[i] || !needsGrad_[i])
            continue;
        const OpNode& node = ops_[i];
        switch (node.op) {
          case Op::Mul:
          case Op::MatMul:
            persistent[static_cast<std::size_t>(node.in0)] = 1;
            persistent[static_cast<std::size_t>(node.in1)] = 1;
            break;
          case Op::SegmentProductComplement:
            persistent[static_cast<std::size_t>(node.in0)] = 1;
            break;
          case Op::Relu:
          case Op::SegmentSoftmax:
            persistent[i] = 1; // backward reads the node's own output
            break;
          default:
            break;
        }
    }

    // --- forward schedule + static slot plan --------------------------
    std::vector<VarId> lastUse(n, -1);
    for (std::size_t j = 0; j < n; ++j) {
        if (skipped_[j])
            continue;
        if (ops_[j].in0 >= 0)
            lastUse[static_cast<std::size_t>(ops_[j].in0)] =
                static_cast<VarId>(j);
        if (ops_[j].in1 >= 0)
            lastUse[static_cast<std::size_t>(ops_[j].in1)] =
                static_cast<VarId>(j);
    }
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> freeVals;
    auto acquireValueSlot = [&](std::size_t rows,
                                std::size_t cols) -> std::uint32_t {
        auto& pool = freeVals[shapeKey(rows, cols)];
        if (!pool.empty()) {
            const std::uint32_t idx = pool.back();
            pool.pop_back();
            return idx;
        }
        valueSlots_.emplace_back(rows, cols, arena_);
        return static_cast<std::uint32_t>(valueSlots_.size() - 1);
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i])
            continue;
        const OpNode& node = ops_[i];
        if (isSource(node.op))
            continue;
        // Bind the output before releasing dead inputs so the
        // destination can never alias an operand within one op.
        if (persistent[i]) {
            valueBind_[i] = {Storage::Owned,
                             static_cast<std::uint32_t>(owned_.size())};
            owned_.emplace_back(rowsOf[i], colsOf[i], arena_);
        } else {
            valueBind_[i] = {Storage::Slot,
                             acquireValueSlot(rowsOf[i], colsOf[i])};
        }
        forwardSchedule_.push_back(static_cast<VarId>(i));
        for (VarId in : {node.in0, node.in1}) {
            if (in < 0)
                continue;
            const auto ix = static_cast<std::size_t>(in);
            if (lastUse[ix] == static_cast<VarId>(i) &&
                valueBind_[ix].kind == Storage::Slot) {
                freeVals[shapeKey(rowsOf[ix], colsOf[ix])].push_back(
                    valueBind_[ix].index);
                lastUse[ix] = -1; // no double-free when in0 == in1
            }
        }
        if (lastUse[i] == -1 && valueBind_[i].kind == Storage::Slot) {
            // Dead value (recorded but never consumed or requested):
            // the slot frees immediately after its own step.
            freeVals[shapeKey(rowsOf[i], colsOf[i])].push_back(
                valueBind_[i].index);
        }
    }

    // --- backward schedule + grad-slot plan ---------------------------
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> freeGrads;
    auto acquireGradSlot = [&](std::size_t rows,
                               std::size_t cols) -> std::uint32_t {
        auto& pool = freeGrads[shapeKey(rows, cols)];
        if (!pool.empty()) {
            const std::uint32_t idx = pool.back();
            pool.pop_back();
            return idx;
        }
        gradSlots_.emplace_back(rows, cols, arena_);
        return static_cast<std::uint32_t>(gradSlots_.size() - 1);
    };
    const auto rootIx = static_cast<std::size_t>(root_);
    rootGradSlot_ = acquireGradSlot(rowsOf[rootIx], colsOf[rootIx]);
    gradBind_[rootIx] = {Storage::Slot, rootGradSlot_};
    for (VarId id = root_; id >= 0; --id) {
        const auto ix = static_cast<std::size_t>(id);
        if (skipped_[ix] || !needsGrad_[ix])
            continue;
        const OpNode& node = ops_[ix];
        BackStep step;
        step.id = id;
        for (VarId in : {node.in0, node.in1}) {
            if (in < 0)
                continue;
            const auto inIx = static_cast<std::size_t>(in);
            if (!needsGrad_[inIx] ||
                gradBind_[inIx].kind != Storage::None)
                continue;
            const std::uint32_t slot =
                acquireGradSlot(rowsOf[inIx], colsOf[inIx]);
            gradBind_[inIx] = {Storage::Slot, slot};
            step.zeroSlots.push_back(slot);
        }
        if (node.in0 >= 0 &&
            needsGrad_[static_cast<std::size_t>(node.in0)]) {
            const auto in0 = static_cast<std::size_t>(node.in0);
            sizeBackwardScratch(node, rowsOf[in0], colsOf[in0],
                                scratch_[ix]);
        }
        backwardSchedule_.push_back(std::move(step));
        // A node's grad is last read at its own step: the slot frees
        // here, after its inputs already claimed theirs.
        freeGrads[shapeKey(rowsOf[ix], colsOf[ix])].push_back(
            gradBind_[ix].index);
    }

    // --- profiler kernel slots ----------------------------------------
    // One obs::Profiler::Kernel per scheduled op, resolved now so
    // sampled replays update the accumulators lock-free. FLOPs/bytes
    // are static estimates from the snapshotted shapes.
    {
        obs::Profiler& prof = obs::Profiler::instance();
        auto costOf = [&](VarId id) {
            return estimateOpCost(ops_, static_cast<std::size_t>(id),
                                  rowsOf, colsOf);
        };
        // Kernel-slot names carry the SIMD variant active at compile
        // time ("@avx2" or nothing) for ops with AVX2 forward bodies;
        // benches compile one Program per simd::Level to get the two
        // variants as separate side-by-side rows. Backward slots stay
        // unsuffixed: all but the fused chain's are generic loops.
        forwardKernels_.reserve(forwardSchedule_.size());
        for (VarId id : forwardSchedule_) {
            const OpCost cost = costOf(id);
            const Op op = ops_[static_cast<std::size_t>(id)].op;
            std::string name = std::string("forward.") + kernelName(op);
            if (hasSimdVariant(op))
                name += tensor::simd::kernelSuffix();
            forwardKernels_.push_back(
                {&prof.kernel(name), cost.fwdFlops, cost.fwdBytes});
        }
        backwardKernels_.reserve(backwardSchedule_.size());
        for (const BackStep& step : backwardSchedule_) {
            const OpCost cost = costOf(step.id);
            const Op op = ops_[static_cast<std::size_t>(step.id)].op;
            backwardKernels_.push_back(
                {&prof.kernel(std::string("backward.") + kernelName(op)),
                 cost.bwdFlops, cost.bwdBytes});
        }
    }

    // --- footprint ----------------------------------------------------
    stats_.ops = forwardSchedule_.size();
    stats_.valueSlots = valueSlots_.size();
    stats_.gradSlots = gradSlots_.size();
    stats_.ownedBuffers = owned_.size();
    auto bytesOf = [](const std::vector<Tensor>& pool) {
        std::size_t total = 0;
        for (const Tensor& t : pool)
            total += t.size() * sizeof(float);
        return total;
    };
    stats_.plannedBytes = bytesOf(owned_) + bytesOf(valueSlots_) +
                          bytesOf(gradSlots_) + bytesOf(saved_);

    tape.clear();
    SMOOTHE_DCHECK_OK(checkInvariants());
}

const Tensor*
Program::valuePtr(VarId id) const
{
    const Binding& binding = valueBind_[static_cast<std::size_t>(id)];
    switch (binding.kind) {
      case Storage::Param:
        return &ops_[binding.index].param->value;
      case Storage::Owned:
        return &owned_[binding.index];
      case Storage::Slot:
        return &valueSlots_[binding.index];
      default:
        return nullptr;
    }
}

Tensor*
Program::valueMut(VarId id)
{
    return const_cast<Tensor*>(
        static_cast<const Program*>(this)->valuePtr(id));
}

exec::ForwardArgs
Program::makeForwardArgs(VarId id)
{
    const auto ix = static_cast<std::size_t>(id);
    const OpNode& node = ops_[ix];
    exec::ForwardArgs args{node};
    args.a = node.in0 >= 0 ? valuePtr(node.in0) : nullptr;
    args.b = node.in1 >= 0 ? valuePtr(node.in1) : nullptr;
    args.value = valueMut(id);
    args.saved = &saved_[ix];
    args.savedIdx = &savedIdx_[ix];
    return args;
}

exec::BackwardArgs
Program::makeBackwardArgs(const BackStep& step)
{
    const auto ix = static_cast<std::size_t>(step.id);
    const OpNode& node = ops_[ix];
    exec::BackwardArgs args{node, gradSlots_[gradBind_[ix].index]};
    args.a = node.in0 >= 0 ? valuePtr(node.in0) : nullptr;
    args.b = node.in1 >= 0 ? valuePtr(node.in1) : nullptr;
    args.value = valuePtr(step.id);
    args.saved = &saved_[ix];
    args.savedIdx = &savedIdx_[ix];
    args.scratch = &scratch_[ix];
    args.ga =
        node.in0 >= 0 && needsGrad_[static_cast<std::size_t>(node.in0)]
            ? &gradSlots_[gradBind_[static_cast<std::size_t>(node.in0)]
                              .index]
            : nullptr;
    args.gb =
        node.in1 >= 0 && needsGrad_[static_cast<std::size_t>(node.in1)]
            ? &gradSlots_[gradBind_[static_cast<std::size_t>(node.in1)]
                              .index]
            : nullptr;
    return args;
}

void
Program::forward()
{
    if (obs::profilerEnabled() &&
        obs::Profiler::instance().sampleReplay(
            obs::Profiler::Phase::Forward)) {
        forwardProfiled();
        return;
    }
    forwardBare();
}

void
Program::backward()
{
    if (obs::profilerEnabled() &&
        obs::Profiler::instance().sampleReplay(
            obs::Profiler::Phase::Backward)) {
        backwardProfiled();
        return;
    }
    backwardBare();
}

void
Program::forwardBare()
{
    for (VarId id : forwardSchedule_) {
        const exec::ForwardArgs args = makeForwardArgs(id);
        exec::forwardOp(args);
    }
}

void
Program::backwardBare()
{
    obs::counter("tape.backward.calls").add(1);
    gradSlots_[rootGradSlot_].fill(1.0f);
    for (const BackStep& step : backwardSchedule_) {
        for (std::uint32_t slot : step.zeroSlots)
            gradSlots_[slot].fill(0.0f);
        const exec::BackwardArgs args = makeBackwardArgs(step);
        exec::backwardOp(args);
    }
}

// The instrumented replays attribute boundary-to-boundary windows: one
// clock read (and one perf-counter read when available) per op
// boundary, so op k is charged t[k+1] - t[k] and kernel self times sum
// to the recorded phase total by construction. The per-op read cost is
// inside the window — acceptable for attribution, which is why the
// disabled path skips all of this behind one relaxed atomic load.
void
Program::forwardProfiled()
{
    obs::Profiler& prof = obs::Profiler::instance();
    obs::PerfCounters* counters = prof.threadCounters();
    const auto start = std::chrono::steady_clock::now();
    auto prev = start;
    obs::PerfSample prevSample =
        counters ? counters->read() : obs::PerfSample{};
    for (std::size_t k = 0; k < forwardSchedule_.size(); ++k) {
        const exec::ForwardArgs args =
            makeForwardArgs(forwardSchedule_[k]);
        exec::forwardOp(args);
        const auto now = std::chrono::steady_clock::now();
        const KernelSlot& slot = forwardKernels_[k];
        slot.kernel->record(nanosBetween(prev, now), slot.flops,
                            slot.bytes);
        if (counters) {
            const obs::PerfSample sample = counters->read();
            slot.kernel->recordCounters(sample - prevSample);
            prevSample = sample;
        }
        prev = now;
    }
    prof.recordPhaseTotal(obs::Profiler::Phase::Forward,
                          nanosBetween(start, prev));
}

void
Program::backwardProfiled()
{
    obs::counter("tape.backward.calls").add(1);
    obs::Profiler& prof = obs::Profiler::instance();
    obs::PerfCounters* counters = prof.threadCounters();
    const auto start = std::chrono::steady_clock::now();
    auto prev = start;
    obs::PerfSample prevSample =
        counters ? counters->read() : obs::PerfSample{};
    gradSlots_[rootGradSlot_].fill(1.0f);
    for (std::size_t k = 0; k < backwardSchedule_.size(); ++k) {
        const BackStep& step = backwardSchedule_[k];
        // Grad-slot zeroing belongs to the step that begins the slot's
        // lifetime, so it stays inside the op's window.
        for (std::uint32_t slot : step.zeroSlots)
            gradSlots_[slot].fill(0.0f);
        const exec::BackwardArgs args = makeBackwardArgs(step);
        exec::backwardOp(args);
        const auto now = std::chrono::steady_clock::now();
        const KernelSlot& slot = backwardKernels_[k];
        slot.kernel->record(nanosBetween(prev, now), slot.flops,
                            slot.bytes);
        if (counters) {
            const obs::PerfSample sample = counters->read();
            slot.kernel->recordCounters(sample - prevSample);
            prevSample = sample;
        }
        prev = now;
    }
    prof.recordPhaseTotal(obs::Profiler::Phase::Backward,
                          nanosBetween(start, prev));
}

void
Program::setInputScalar(const std::string& name, float v)
{
    auto it = inputs_.find(name);
    SMOOTHE_CHECK(it != inputs_.end(), "program has no input slot '%s'",
                  name.c_str());
    Tensor& slot =
        owned_[valueBind_[static_cast<std::size_t>(it->second)].index];
    SMOOTHE_CHECK(slot.size() == 1, "input slot '%s' is not 1x1",
                  name.c_str());
    slot.data()[0] = v;
}

const Tensor&
Program::value(VarId id) const
{
    SMOOTHE_CHECK(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
                  "program: node %d out of range", id);
    const Binding& binding = valueBind_[static_cast<std::size_t>(id)];
    SMOOTHE_CHECK(binding.kind == Storage::Owned ||
                      binding.kind == Storage::Param,
                  "program: node %d is transient; request it as an output",
                  id);
    return *valuePtr(id);
}

std::optional<std::string>
Program::checkInvariants() const
{
    auto problem = [](VarId id, const std::string& what)
        -> std::optional<std::string> {
        return "program node " + std::to_string(id) + ": " + what;
    };
    VarId prev = -1;
    for (VarId id : forwardSchedule_) {
        if (id <= prev)
            return problem(id, "forward schedule is not ascending");
        prev = id;
        const auto ix = static_cast<std::size_t>(id);
        const OpNode& node = ops_[ix];
        if (skipped_[ix])
            return problem(id, "skipped node is scheduled");
        if (valueBind_[ix].kind == Storage::None)
            return problem(id, "scheduled op has no output binding");
        for (VarId in : {node.in0, node.in1}) {
            if (in >= 0 &&
                valueBind_[static_cast<std::size_t>(in)].kind ==
                    Storage::None)
                return problem(id, "operand " + std::to_string(in) +
                                       " has no binding");
        }
    }
    prev = static_cast<VarId>(ops_.size());
    for (const BackStep& step : backwardSchedule_) {
        if (step.id >= prev)
            return problem(step.id,
                           "backward schedule is not descending");
        prev = step.id;
        const auto ix = static_cast<std::size_t>(step.id);
        if (!needsGrad_[ix] || gradBind_[ix].kind != Storage::Slot)
            return problem(step.id, "backward step without a grad slot");
    }
    return std::nullopt;
}

bool
Program::patch(const StructureDelta& delta)
{
    obs::Span span("program.patch");
    const std::size_t n = ops_.size();

    // ------------------------------------------------------------------
    // Analysis phase: everything below up to the mutation marker is
    // read-only. Any `return false` leaves the Program byte-identical,
    // so the caller can still replay the old plan or re-record.
    // ------------------------------------------------------------------

    // Positional scatter dims. Every scheduled ScatterMatrix needs a new
    // dim (entry contents changed under the shared pointer), and every
    // TrExpm must sit directly on a scatter so its dim can be derived.
    std::vector<std::size_t> newDim(n, 0);
    {
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (skipped_[i] || ops_[i].op != Op::ScatterMatrix)
                continue;
            if (k >= delta.scatterDims.size())
                return false;
            newDim[i] = delta.scatterDims[k++];
        }
        if (k != delta.scatterDims.size())
            return false;
        for (std::size_t i = 0; i < n; ++i) {
            if (skipped_[i] || ops_[i].op != Op::TrExpm)
                continue;
            const VarId in = ops_[i].in0;
            if (in < 0 ||
                ops_[static_cast<std::size_t>(in)].op != Op::ScatterMatrix)
                return false;
            newDim[i] = newDim[static_cast<std::size_t>(in)];
        }
    }

    // Plan constant replacements: one-hot-per-row Constants become the
    // delta's seed when one is provided; otherwise they keep their shape
    // and downstream compatibility checks arbitrate.
    std::vector<char> replaceOnehot(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (ops_[i].op != Op::Constant)
            continue;
        if (delta.onehotRows.size() != 0 &&
            isOnehotRows(owned_[valueBind_[i].index]))
            replaceOnehot[i] = 1;
    }

    // Shape inference in id order (inputs always precede consumers on a
    // tape). Skipped fusion links are inferred too — harmless, and it
    // keeps the recurrence total.
    std::vector<std::size_t> rowsOf(n, 0);
    std::vector<std::size_t> colsOf(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const OpNode& node = ops_[i];
        const auto i0 = static_cast<std::size_t>(node.in0);
        const auto i1 = static_cast<std::size_t>(node.in1);
        switch (node.op) {
          case Op::Leaf:
            rowsOf[i] = node.param->value.rows();
            colsOf[i] = node.param->value.cols();
            break;
          case Op::Constant:
          case Op::Input: {
            const Tensor& t = replaceOnehot[i]
                                  ? delta.onehotRows
                                  : owned_[valueBind_[i].index];
            rowsOf[i] = t.rows();
            colsOf[i] = t.cols();
            break;
          }
          case Op::Add:
          case Op::Sub:
          case Op::Mul:
            if (rowsOf[i0] != rowsOf[i1] || colsOf[i0] != colsOf[i1])
                return false;
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = colsOf[i0];
            break;
          case Op::Scale:
          case Op::AddScalar:
          case Op::Relu:
          case Op::MulConst:
          case Op::AddConst:
          case Op::SegmentSoftmax:
          case Op::FusedElemChain:
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = colsOf[i0];
            break;
          case Op::DotRowsConst:
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = 1;
            break;
          case Op::SumAll:
            rowsOf[i] = 1;
            colsOf[i] = 1;
            break;
          case Op::MeanRows:
            rowsOf[i] = 1;
            colsOf[i] = colsOf[i0];
            break;
          case Op::SegmentProductComplement:
          case Op::SegmentMaxGather:
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = node.segs->numSegments();
            break;
          case Op::GatherCols:
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = node.index->size();
            break;
          case Op::MatMul:
            if (colsOf[i0] != rowsOf[i1])
                return false;
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = colsOf[i1];
            break;
          case Op::AddRowBroadcast:
            if (colsOf[i0] != colsOf[i1] || rowsOf[i1] != 1)
                return false;
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = colsOf[i0];
            break;
          case Op::ScatterMatrix:
            rowsOf[i] = node.meanOverRows ? 1 : rowsOf[i0];
            colsOf[i] = newDim[i] * newDim[i];
            break;
          case Op::TrExpm:
            rowsOf[i] = rowsOf[i0];
            colsOf[i] = 1;
            break;
        }
    }

    // Gather-index bounds: the one hazard shape checks alone cannot see
    // is a gather source (a constant seed) narrower than what the
    // rebuilt index addresses.
    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i] || ops_[i].op != Op::GatherCols)
            continue;
        std::uint32_t maxIdx = 0;
        for (std::uint32_t v : *ops_[i].index)
            maxIdx = v > maxIdx ? v : maxIdx;
        if (!ops_[i].index->empty() &&
            maxIdx >= colsOf[static_cast<std::size_t>(ops_[i].in0)])
            return false;
    }

    // Broadcast payloads: recognized masks are planned for replacement;
    // either way the effective payload must still broadcast over the
    // node's new shape.
    struct MaskPlan
    {
        Tensor* target = nullptr;
        const Tensor* repl = nullptr;
    };
    std::vector<MaskPlan> maskPlans;
    auto planPayload = [&](Tensor& payload, std::size_t i) -> bool {
        const Tensor* repl = nullptr;
        if (isMaskOneHot(payload) && delta.maskOneHot.size() != 0)
            repl = &delta.maskOneHot;
        else if (isMaskComplement(payload) &&
                 delta.maskComplement.size() != 0)
            repl = &delta.maskComplement;
        const Tensor& eff = repl ? *repl : payload;
        if (eff.cols() != colsOf[i] ||
            (eff.rows() != 1 && eff.rows() != rowsOf[i]))
            return false;
        if (repl)
            maskPlans.push_back({&payload, repl});
        return true;
    };
    std::vector<char> replaceWeights(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i])
            continue;
        OpNode& node = ops_[i];
        switch (node.op) {
          case Op::MulConst:
          case Op::AddConst:
            if (!planPayload(node.constTensor, i))
                return false;
            break;
          case Op::FusedElemChain:
            for (tensor::ElemStage& stage : node.chain) {
                if (stage.kind != tensor::ElemStageKind::MulConst &&
                    stage.kind != tensor::ElemStageKind::AddConst)
                    continue;
                if (!planPayload(stage.c, i))
                    return false;
            }
            break;
          case Op::DotRowsConst: {
            const auto want = colsOf[static_cast<std::size_t>(node.in0)];
            if (node.constVec.size() == want)
                break;
            if (delta.rowWeights.size() != want)
                return false;
            replaceWeights[i] = 1;
            break;
          }
          default:
            break;
        }
    }

    // Slot agreement: a reused slot's users shared one shape at compile
    // time and must still share one after growth. (They can stop
    // agreeing when two previously equal dimensions — say node and
    // class counts — grow apart; that invalidates the liveness pooling
    // and forces a re-record.)
    auto agreeOn = [&](const Binding& bind, std::size_t i,
                       std::vector<std::uint64_t>& shapes) -> bool {
        if (bind.kind != Storage::Slot)
            return true;
        const std::uint64_t key = shapeKey(rowsOf[i], colsOf[i]);
        if (shapes[bind.index] == 0)
            shapes[bind.index] = key;
        return shapes[bind.index] == key;
    };
    std::vector<std::uint64_t> valueShape(valueSlots_.size(), 0);
    std::vector<std::uint64_t> gradShape(gradSlots_.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i])
            continue;
        if (!agreeOn(valueBind_[i], i, valueShape))
            return false;
        if (needsGrad_[i] && !agreeOn(gradBind_[i], i, gradShape))
            return false;
    }

    // ------------------------------------------------------------------
    // Mutation phase: the growth is plan-preserving; apply it.
    // ------------------------------------------------------------------

    for (std::size_t i = 0; i < n; ++i) {
        if (replaceOnehot[i])
            owned_[valueBind_[i].index] = delta.onehotRows;
        if (replaceWeights[i])
            ops_[i].constVec = delta.rowWeights;
    }
    for (const MaskPlan& plan : maskPlans)
        *plan.target = *plan.repl;

    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i])
            continue;
        OpNode& node = ops_[i];
        if (node.op == Op::ScatterMatrix) {
            node.dim = newDim[i];
        } else if (node.op == Op::TrExpm) {
            node.dim = newDim[i];
            // The expm kernel writes its power-series stash into a
            // preallocated rows x dim^2 scratch.
            if (saved_[i].rows() != rowsOf[i] ||
                saved_[i].cols() != newDim[i] * newDim[i])
                saved_[i] =
                    Tensor(rowsOf[i], newDim[i] * newDim[i], arena_);
        } else if (node.op == Op::AddScalar && node.in0 >= 0) {
            // The trace-penalty bias: tr(expm(0)) == dim per row, so the
            // zero-baseline AddScalar downstream of SumAll(TrExpm(...))
            // carries -dim * rows and must track the new dim.
            const OpNode& sum = ops_[static_cast<std::size_t>(node.in0)];
            if (sum.op == Op::SumAll && sum.in0 >= 0) {
                const auto trIx = static_cast<std::size_t>(sum.in0);
                if (ops_[trIx].op == Op::TrExpm)
                    node.alpha = -static_cast<float>(
                        newDim[trIx] * rowsOf[trIx]);
            }
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const OpNode& node = ops_[i];
        if (skipped_[i] || !needsGrad_[i] || node.in0 < 0)
            continue;
        const auto in0 = static_cast<std::size_t>(node.in0);
        if (needsGrad_[in0])
            sizeBackwardScratch(node, rowsOf[in0], colsOf[in0],
                                scratch_[i]);
    }

    // Resize the planned buffers whose shape moved. Bindings, schedules,
    // and slot indices all stay put.
    for (std::size_t i = 0; i < n; ++i) {
        if (skipped_[i] || isSource(ops_[i].op))
            continue;
        const Binding& bind = valueBind_[i];
        if (bind.kind == Storage::Owned &&
            (owned_[bind.index].rows() != rowsOf[i] ||
             owned_[bind.index].cols() != colsOf[i]))
            owned_[bind.index] = Tensor(rowsOf[i], colsOf[i], arena_);
    }
    auto resizePool = [&](std::vector<Tensor>& pool,
                          const std::vector<std::uint64_t>& shapes) {
        for (std::size_t s = 0; s < pool.size(); ++s) {
            if (shapes[s] == 0)
                continue;
            const auto rows = static_cast<std::size_t>(shapes[s] >> 32);
            const auto cols =
                static_cast<std::size_t>(shapes[s] & 0xffffffffULL);
            if (pool[s].rows() != rows || pool[s].cols() != cols)
                pool[s] = Tensor(rows, cols, arena_);
        }
    };
    resizePool(valueSlots_, valueShape);
    resizePool(gradSlots_, gradShape);

    // Refresh the static profiler cost estimates for the new shapes
    // (kernel identities are unchanged — same ops).
    {
        auto costOf = [&](VarId id) {
            return estimateOpCost(ops_, static_cast<std::size_t>(id),
                                  rowsOf, colsOf);
        };
        for (std::size_t k = 0; k < forwardSchedule_.size(); ++k) {
            const OpCost cost = costOf(forwardSchedule_[k]);
            forwardKernels_[k].flops = cost.fwdFlops;
            forwardKernels_[k].bytes = cost.fwdBytes;
        }
        for (std::size_t k = 0; k < backwardSchedule_.size(); ++k) {
            const OpCost cost = costOf(backwardSchedule_[k].id);
            backwardKernels_[k].flops = cost.bwdFlops;
            backwardKernels_[k].bytes = cost.bwdBytes;
        }
    }

    // Recompute the footprint stats. naiveBytes is re-estimated over the
    // post-fusion edges — a slightly tighter eager baseline than the
    // compile-time figure, which is fine for a reuse-ratio telemetry
    // stat.
    {
        auto bytesOf = [](const std::vector<Tensor>& pool) {
            std::size_t total = 0;
            for (const Tensor& t : pool)
                total += t.size() * sizeof(float);
            return total;
        };
        stats_.plannedBytes = bytesOf(owned_) + bytesOf(valueSlots_) +
                              bytesOf(gradSlots_) + bytesOf(saved_);
        stats_.naiveBytes = 0;
        std::vector<char> eagerGrad(n, 0);
        eagerGrad[static_cast<std::size_t>(root_)] = 1;
        for (VarId id = root_; id >= 0; --id) {
            if (!eagerGrad[static_cast<std::size_t>(id)])
                continue;
            const OpNode& node = ops_[static_cast<std::size_t>(id)];
            for (VarId in : {node.in0, node.in1}) {
                if (in >= 0)
                    eagerGrad[static_cast<std::size_t>(in)] = 1;
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t valueBytes =
                rowsOf[i] * colsOf[i] * sizeof(float);
            stats_.naiveBytes += valueBytes;
            if (eagerGrad[i])
                stats_.naiveBytes += valueBytes;
            stats_.naiveBytes += saved_[i].size() * sizeof(float);
        }
    }

    obs::counter("program.patch").add(1);
    SMOOTHE_DCHECK_OK(checkInvariants());
    return true;
}

} // namespace smoothe::ad
