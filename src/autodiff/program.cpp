#include "autodiff/program.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "autodiff/exec.hpp"
#include "check/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

namespace {

/** Slot-pool key: buffers are shared only between equal shapes. */
std::uint64_t
shapeKey(const OpNode& node)
{
    return (static_cast<std::uint64_t>(node.rows) << 32) |
           static_cast<std::uint64_t>(node.cols);
}

bool
isSource(Op op)
{
    return op == Op::Leaf || op == Op::Constant;
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
      case Op::Add:
        return "add";
      case Op::Mul:
        return "mul";
      case Op::Relu:
        return "relu";
      case Op::DotRowsConst:
        return "dot_rows_const";
      case Op::SumAll:
        return "sum_all";
      case Op::SegmentSoftmax:
        return "segment_softmax";
      case Op::Propagate:
        return "propagate";
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
      case Op::Mul:
      case Op::Relu:
      case Op::FusedElemChain:
      case Op::SegmentSoftmax:
      case Op::Propagate:
      case Op::TrExpm:
        return true;
      default:
        return false;
    }
}

bool
hasSimdBackward(Op op)
{
    return op == Op::FusedElemChain || op == Op::Propagate;
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
 * Roofline-style FLOP and bytes-moved estimates from the recorded
 * shapes. Counts algorithmic work (one multiply + one add per MAC,
 * tensor::cost::kExpFlops per expf) and compulsory traffic (operands
 * read once, outputs written once, grad accumulators read-modify-
 * written); caches and fused passes make these upper bounds on actual
 * DRAM traffic, which is the convention roofline estimates want.
 */
OpCost
estimateOpCost(const std::vector<OpNode>& ops, std::size_t ix)
{
    namespace cost = tensor::cost;
    const OpNode& node = ops[ix];
    auto shapeOf = [&](VarId v, std::uint64_t& r, std::uint64_t& c) {
        r = v >= 0 ? ops[static_cast<std::size_t>(v)].rows : 0;
        c = v >= 0 ? ops[static_cast<std::size_t>(v)].cols : 0;
    };
    const std::uint64_t rows = node.rows;
    const std::uint64_t cols = node.cols;
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
        break;
      case Op::Add:
        c = {n, F * (a + b + n), 2 * n, 6 * F * n};
        break;
      case Op::Mul:
        c = {n, 3 * F * n, 4 * n, 10 * F * n};
        break;
      case Op::Relu:
        c = {n, 2 * F * n, 2 * n, 4 * F * n};
        break;
      case Op::DotRowsConst:
        c = {2 * a, F * (a + aCols + n), 2 * a,
             F * (2 * a + aCols + n)};
        break;
      case Op::SumAll:
        c = {a, F * a, a, F * a};
        break;
      case Op::SegmentSoftmax:
        c = {(4 + cost::kExpFlops) * a, 6 * F * a, 6 * a, 6 * F * a};
        break;
      case Op::Propagate: {
        // Per round and seed: p = cp * q (one flop per node), then per
        // parent entry a complement-multiply and a compare, and a few
        // flops per class; backward recomputes p and takes about twice
        // that. Traffic: p and its gradient per node, q per class.
        const tensor::PropagateSpec& spec = node.propagate;
        const std::uint64_t entries = spec.parents->items.size();
        const std::uint64_t classes = spec.numClasses();
        const std::uint64_t round =
            rows * (cols + 3 * entries + 4 * classes);
        const std::uint64_t roundBytes = rows * F * (2 * cols + 2 * classes);
        const std::uint64_t t = spec.rounds;
        c = {t * round + n, t * roundBytes + 2 * F * n,
             2 * t * round + 2 * n, 2 * t * roundBytes + 4 * F * n};
        break;
      }
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
            rows * cost::kExpmSeriesProducts * cost::matmulFlops(nnz, 1, d);
        const std::uint64_t bytes = rows * 4 * F * d * d;
        c = {flops, bytes, flops, bytes};
        break;
      }
      case Op::FusedElemChain:
        // One flop per element; a const-tensor stage adds one operand
        // read (charged to every stage, as an upper bound).
        c = {n, 3 * F * n, n, 3 * F * n};
        break;
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

} // namespace

Program::Program(Tape&& tape, VarId root, std::vector<VarId> outputs)
    : arena_(tape.arena_), root_(root)
{
    obs::Span span("program.compile");
    const std::size_t n = tape.nodes_.size();
    SMOOTHE_CHECK(root >= 0 && static_cast<std::size_t>(root) < n,
                  "program: root %d not on this %zu-node tape", root, n);
    SMOOTHE_DCHECK_OK(tape.checkInvariants(/*screen_values=*/false));

    needsGrad_.assign(n, 0);
    valueBind_.assign(n, Binding{});
    gradBind_.assign(n, Binding{});
    saved_.resize(n);

    // --- read recorded shapes, steal metadata and payloads -------------
    // The recording holds shapes only, so the stashes the forward
    // kernels fill are allocated here: TrExpm's expm rows, Propagate's
    // q and argmax of every round, and one scratch buffer sized for the
    // largest Propagate (ops run one at a time, so they share it).
    ops_.reserve(n);
    std::size_t scratchFloats = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Tape::Node& rec = tape.nodes_[i];
        if (rec.op == Op::TrExpm) {
            saved_[i] = Tensor(rec.rows, rec.dim * rec.dim, arena_);
        } else if (rec.op == Op::Propagate) {
            saved_[i] = Tensor(rec.rows,
                               tensor::propagateSavedCols(rec.propagate),
                               arena_);
            scratchFloats = std::max(
                scratchFloats,
                rec.rows * tensor::propagateScratchCols(rec.propagate));
        }
        ops_.push_back(std::move(static_cast<OpNode&>(rec)));
    }
    if (scratchFloats > 0)
        scratch_ = Tensor(1, scratchFloats, arena_);

    // The eager baseline re-allocates every value, every grad reachable
    // from the root (through constants too), and every saved stash each
    // iteration.
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
                ops_[i].rows * ops_[i].cols * sizeof(float);
            stats_.naiveBytes += valueBytes;
            if (eagerGrad[i])
                stats_.naiveBytes += valueBytes;
            stats_.naiveBytes += saved_[i].size() * sizeof(float);
        }
        stats_.naiveBytes += scratch_.size() * sizeof(float);
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
            valueBind_[i] = {Storage::Owned,
                             static_cast<std::uint32_t>(owned_.size())};
            owned_.push_back(std::move(rec.value));
            break;
          default:
            break;
        }
    }

    // --- persistence, part 1: the root and requested outputs ---------
    std::vector<char> persistent(n, 0);
    persistent[static_cast<std::size_t>(root_)] = 1;
    for (VarId v : outputs) {
        SMOOTHE_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
                      "program: output %d not on the tape", v);
        persistent[static_cast<std::size_t>(v)] = 1;
    }

    // --- gradient reachability ----------------------------------------
    // The eager set of grad-carrying nodes, minus the constants whose
    // backward is a no-op anyway.
    needsGrad_[static_cast<std::size_t>(root_)] = 1;
    for (VarId id = root_; id >= 0; --id) {
        if (!needsGrad_[static_cast<std::size_t>(id)])
            continue;
        const OpNode& node = ops_[static_cast<std::size_t>(id)];
        for (VarId in : {node.in0, node.in1}) {
            if (in < 0)
                continue;
            const Op inOp = ops_[static_cast<std::size_t>(in)].op;
            if (inOp != Op::Constant)
                needsGrad_[static_cast<std::size_t>(in)] = 1;
        }
    }

    // --- persistence, part 2: values the backward pass reads ---------
    for (std::size_t i = 0; i < n; ++i) {
        if (!needsGrad_[i])
            continue;
        const OpNode& node = ops_[i];
        switch (node.op) {
          case Op::Mul:
          case Op::MatMul:
            persistent[static_cast<std::size_t>(node.in0)] = 1;
            persistent[static_cast<std::size_t>(node.in1)] = 1;
            break;
          case Op::Propagate:
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
        if (ops_[j].in0 >= 0)
            lastUse[static_cast<std::size_t>(ops_[j].in0)] =
                static_cast<VarId>(j);
        if (ops_[j].in1 >= 0)
            lastUse[static_cast<std::size_t>(ops_[j].in1)] =
                static_cast<VarId>(j);
    }
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> freeVals;
    auto acquireValueSlot = [&](const OpNode& shape) -> std::uint32_t {
        auto& pool = freeVals[shapeKey(shape)];
        if (!pool.empty()) {
            const std::uint32_t idx = pool.back();
            pool.pop_back();
            return idx;
        }
        valueSlots_.emplace_back(shape.rows, shape.cols, arena_);
        return static_cast<std::uint32_t>(valueSlots_.size() - 1);
    };
    for (std::size_t i = 0; i < n; ++i) {
        const OpNode& node = ops_[i];
        if (isSource(node.op))
            continue;
        // Bind the output before releasing dead inputs so the
        // destination can never alias an operand within one op.
        if (persistent[i]) {
            valueBind_[i] = {Storage::Owned,
                             static_cast<std::uint32_t>(owned_.size())};
            owned_.emplace_back(node.rows, node.cols, arena_);
        } else {
            valueBind_[i] = {Storage::Slot, acquireValueSlot(node)};
        }
        forwardSchedule_.push_back(static_cast<VarId>(i));
        for (VarId in : {node.in0, node.in1}) {
            if (in < 0)
                continue;
            const auto ix = static_cast<std::size_t>(in);
            if (lastUse[ix] == static_cast<VarId>(i) &&
                valueBind_[ix].kind == Storage::Slot) {
                freeVals[shapeKey(ops_[ix])].push_back(valueBind_[ix].index);
                lastUse[ix] = -1; // no double-free when in0 == in1
            }
        }
        if (lastUse[i] == -1 && valueBind_[i].kind == Storage::Slot) {
            // Dead value (recorded but never consumed or requested):
            // the slot frees immediately after its own step.
            freeVals[shapeKey(node)].push_back(valueBind_[i].index);
        }
    }

    // --- backward schedule + grad-slot plan ---------------------------
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> freeGrads;
    auto acquireGradSlot = [&](const OpNode& shape) -> std::uint32_t {
        auto& pool = freeGrads[shapeKey(shape)];
        if (!pool.empty()) {
            const std::uint32_t idx = pool.back();
            pool.pop_back();
            return idx;
        }
        gradSlots_.emplace_back(shape.rows, shape.cols, arena_);
        return static_cast<std::uint32_t>(gradSlots_.size() - 1);
    };
    const auto rootIx = static_cast<std::size_t>(root_);
    rootGradSlot_ = acquireGradSlot(ops_[rootIx]);
    gradBind_[rootIx] = {Storage::Slot, rootGradSlot_};
    for (VarId id = root_; id >= 0; --id) {
        const auto ix = static_cast<std::size_t>(id);
        if (!needsGrad_[ix])
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
            const std::uint32_t slot = acquireGradSlot(ops_[inIx]);
            gradBind_[inIx] = {Storage::Slot, slot};
            step.zeroSlots.push_back(slot);
        }
        backwardSchedule_.push_back(std::move(step));
        // A node's grad is last read at its own step: the slot frees
        // here, after its inputs already claimed theirs.
        freeGrads[shapeKey(node)].push_back(gradBind_[ix].index);
    }

    // --- profiler kernel slots ----------------------------------------
    // One obs::Profiler::Kernel per scheduled op, resolved now so
    // sampled replays update the accumulators lock-free. FLOPs/bytes
    // are static estimates from the recorded shapes.
    {
        obs::Profiler& prof = obs::Profiler::instance();
        auto costOf = [&](VarId id) {
            return estimateOpCost(ops_, static_cast<std::size_t>(id));
        };
        // Kernel-slot names carry the SIMD variant active at compile
        // time ("@avx2" or nothing) for ops with AVX2 forward bodies;
        // benches compile one Program per simd::Level to get the two
        // variants as separate side-by-side rows. Backward slots stay
        // unsuffixed: only the elementwise stage's and Propagate's
        // dispatch.
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
                          bytesOf(gradSlots_) + bytesOf(saved_) +
                          scratch_.size() * sizeof(float);

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
    args.scratch = &scratch_;
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
    args.scratch = &scratch_;
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
    static obs::Counter& calls = obs::counter("tape.backward.calls");
    calls.add(1);
    gradSlots_[rootGradSlot_].fill(1.0f);
    for (const BackStep& step : backwardSchedule_) {
        for (std::uint32_t slot : step.zeroSlots)
            gradSlots_[slot].fill(0.0f);
        const exec::BackwardArgs args = makeBackwardArgs(step);
        exec::backwardOp(args);
    }
}

// The instrumented replays attribute boundary-to-boundary windows: one
// clock read per op boundary, so op k is charged t[k+1] - t[k] and
// kernel self times sum to the recorded phase total by construction.
// The per-op read cost is inside the window — acceptable for
// attribution, which is why the disabled path skips all of this behind
// one relaxed atomic load.
void
Program::forwardProfiled()
{
    obs::Profiler& prof = obs::Profiler::instance();
    const auto start = std::chrono::steady_clock::now();
    auto prev = start;
    for (std::size_t k = 0; k < forwardSchedule_.size(); ++k) {
        const exec::ForwardArgs args =
            makeForwardArgs(forwardSchedule_[k]);
        exec::forwardOp(args);
        const auto now = std::chrono::steady_clock::now();
        const KernelSlot& slot = forwardKernels_[k];
        slot.kernel->record(nanosBetween(prev, now), slot.flops,
                            slot.bytes);
        prev = now;
    }
    prof.recordPhaseTotal(obs::Profiler::Phase::Forward,
                          nanosBetween(start, prev));
}

void
Program::backwardProfiled()
{
    static obs::Counter& calls = obs::counter("tape.backward.calls");
    calls.add(1);
    obs::Profiler& prof = obs::Profiler::instance();
    const auto start = std::chrono::steady_clock::now();
    auto prev = start;
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
        prev = now;
    }
    prof.recordPhaseTotal(obs::Profiler::Phase::Backward,
                          nanosBetween(start, prev));
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

} // namespace smoothe::ad
