/**
 * @file
 * Compiled Program tests: a recorded tape replayed through ad::Program
 * must be bit-identical to rebuilding the tape every iteration (the
 * reference) — forward values, Param gradients, and whole Adam
 * trajectories — on randomized small e-graphs under each propagation
 * assumption, with runs of two to four constant-operand elementwise ops,
 * at pool sizes 1 and 4. Also covers the buffer-plan invariants
 * (planned bytes below one rebuild iteration).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autodiff/adam.hpp"
#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "egraph/egraph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ad = smoothe::ad;
namespace eg = smoothe::eg;
namespace st = smoothe::tensor;
namespace util = smoothe::util;
using ad::Param;
using ad::Tape;
using ad::Tensor;
using ad::VarId;

namespace {

Tensor
randomTensor(std::size_t rows, std::size_t cols, util::Rng& rng,
             double lo = -1.0, double hi = 1.0)
{
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

bool
bitwiseEqual(const Tensor& a, const Tensor& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** A small random DAG e-graph: children always point to later classes. */
eg::EGraph
randomEGraph(util::Rng& rng)
{
    eg::EGraph g;
    const std::size_t classes =
        static_cast<std::size_t>(rng.uniformInt(3, 6));
    for (std::size_t c = 0; c < classes; ++c)
        g.addClass();
    for (std::size_t c = 0; c < classes; ++c) {
        const std::size_t nodes =
            static_cast<std::size_t>(rng.uniformInt(1, 3));
        for (std::size_t n = 0; n < nodes; ++n) {
            std::vector<eg::ClassId> children;
            for (std::size_t k = c + 1; k < classes; ++k) {
                if (rng.bernoulli(0.5))
                    children.push_back(static_cast<eg::ClassId>(k));
            }
            g.addNode(static_cast<eg::ClassId>(c), "op", children,
                      rng.uniform(0.5, 4.0));
        }
    }
    g.setRoot(0);
    EXPECT_FALSE(g.finalize().has_value());
    return g;
}

/** Handles into one recorded forward pass. */
struct Handles
{
    VarId loss = -1;
    VarId cp = -1;
    VarId penalty = -1;
};

/**
 * The propagation assumption a Pipeline records, and the run of
 * constant-operand elementwise ops on p that comes with it.
 */
enum class Rule {
    /** scale -> addScalar -> mulConst -> addConst. */
    Independent,
    /** scale -> addScalar into an add, then scale -> mulConst ->
     *  addConst. */
    Hybrid,
    /** mulConst -> addConst. */
    Correlated,
};

constexpr Rule kRules[] = {Rule::Independent, Rule::Hybrid,
                           Rule::Correlated};

/** The NOTEARS coefficient every Pipeline records. */
constexpr float kLambda = 2.0f;

/**
 * The SmoothE-shaped pipeline over a random e-graph: softmax per class,
 * probability propagation under `rule`, the rule's elementwise ops, a
 * non-linear (matmul/relu) head, and a NOTEARS trace penalty scaled by
 * the constant kLambda.
 * Structures and Params live here so recorded pointers stay valid for
 * the Program's lifetime.
 */
struct Pipeline
{
    Rule rule = Rule::Independent;
    st::SegmentIndex members;  ///< class -> its e-node columns
    st::SegmentIndex parents;  ///< class -> parent e-node columns
    std::vector<std::uint32_t> node2class;
    std::vector<ad::MatrixEntry> entries; ///< cp -> class adjacency
    std::size_t dim = 0;
    std::uint32_t root = 0;
    Tensor notRoot, rootMask; ///< 1 x numNodes mulConst/addConst operands
    std::vector<float> headWeights;
    std::size_t propIters = 3;
    std::size_t batch = 2;
    Param theta;
    Param w;
    Param bias;

    Pipeline(const eg::EGraph& g, util::Rng& rng,
             Rule propagation = Rule::Independent)
        : rule(propagation)
    {
        const std::size_t n = g.numNodes();
        const std::size_t c = g.numClasses();
        dim = c;
        std::vector<std::uint32_t> assignment(n);
        for (eg::NodeId id = 0; id < n; ++id)
            assignment[id] = g.classOf(id);
        members = st::SegmentIndex::fromAssignment(assignment, c);
        node2class = assignment;
        parents.offsets.push_back(0);
        for (eg::ClassId cls = 0; cls < c; ++cls) {
            for (eg::NodeId parent : g.parents(cls))
                parents.items.push_back(parent);
            parents.offsets.push_back(
                static_cast<std::uint32_t>(parents.items.size()));
        }
        for (eg::NodeId id = 0; id < n; ++id) {
            for (eg::ClassId child : g.node(id).children) {
                entries.push_back({static_cast<std::uint32_t>(id),
                                   static_cast<std::uint32_t>(
                                       g.classOf(id) * dim + child)});
            }
        }
        batch = static_cast<std::size_t>(rng.uniformInt(1, 3));
        root = static_cast<std::uint32_t>(g.root());
        notRoot = Tensor(1, n, 1.0f);
        rootMask = Tensor(1, n);
        for (const eg::NodeId id : g.nodesInClass(g.root())) {
            notRoot.at(0, id) = 0.0f;
            rootMask.at(0, id) = 1.0f;
        }
        const std::size_t hidden = 4;
        for (std::size_t h = 0; h < hidden; ++h)
            headWeights.push_back(
                static_cast<float>(rng.uniform(0.2, 2.0)));
        theta = Param(randomTensor(batch, n, rng, -1.0, 1.0));
        w = Param(randomTensor(n, hidden, rng, -0.5, 0.5));
        bias = Param(randomTensor(1, hidden, rng, -0.2, 0.2));
    }

    Handles
    build(Tape& tape)
    {
        Handles h;
        const VarId thetaVar = tape.leaf(&theta);
        h.cp = tape.segmentSoftmax(thetaVar, &members);
        st::PropagateSpec spec;
        spec.node2class = &node2class;
        spec.parents = &parents;
        spec.root = root;
        spec.rounds = propIters;
        VarId p = -1;
        switch (rule) {
          case Rule::Independent:
            spec.assumption = st::Assumption::Independent;
            p = tape.addScalar(tape.scale(tape.propagate(h.cp, spec), -1.0f),
                               1.0f);
            break;
          case Rule::Hybrid: {
            spec.assumption = st::Assumption::Hybrid;
            const VarId prop = tape.propagate(h.cp, spec);
            const VarId ind =
                tape.addScalar(tape.scale(prop, -1.0f), 1.0f);
            p = tape.scale(tape.add(ind, prop), 0.5f);
            break;
          }
          case Rule::Correlated:
            spec.assumption = st::Assumption::Correlated;
            p = tape.propagate(h.cp, spec);
            break;
        }
        p = tape.addConst(tape.mulConst(p, notRoot), rootMask);
        VarId head = tape.matmul(p, tape.leaf(&w));
        head = tape.relu(tape.addRowBroadcast(head, tape.leaf(&bias)));
        VarId loss = tape.sumAll(tape.dotRowsConst(head, headWeights));
        const VarId a = tape.scatterMatrix(h.cp, &entries, dim, true);
        const VarId tr = tape.trExpm(a, dim);
        h.penalty = tape.addScalar(tape.sumAll(tr),
                                   -static_cast<float>(dim));
        loss = tape.add(loss, tape.scale(h.penalty, kLambda));
        h.loss = loss;
        return h;
    }

    std::vector<Param*>
    params()
    {
        return {&theta, &w, &bias};
    }
};

constexpr std::size_t kIterations = 8;

/** One optimization trajectory: per-iteration loss, grads, and theta. */
struct Trajectory
{
    std::vector<Tensor> losses;
    std::vector<Tensor> thetaGrads;
    std::vector<Tensor> wGrads;
    std::vector<Tensor> thetas;
};

Trajectory
runRebuild(Pipeline& pl)
{
    Trajectory out;
    ad::Adam optimizer(pl.params(), ad::AdamConfig{});
    for (std::size_t iter = 0; iter < kIterations; ++iter) {
        // The reference rebuild: a fresh tape per iteration.
        Tape tape;
        const Handles h = pl.build(tape);
        optimizer.zeroGrad();
        tape.backward(h.loss);
        out.losses.push_back(tape.value(h.loss));
        out.thetaGrads.push_back(pl.theta.grad);
        out.wGrads.push_back(pl.w.grad);
        optimizer.step();
        out.thetas.push_back(pl.theta.value);
    }
    return out;
}

Trajectory
runCompiled(Pipeline& pl)
{
    Trajectory out;
    ad::Adam optimizer(pl.params(), ad::AdamConfig{});
    Tape recorder;
    const Handles h = pl.build(recorder);
    ad::Program program(std::move(recorder), h.loss,
                        {h.cp, h.penalty});
    for (std::size_t iter = 0; iter < kIterations; ++iter) {
        program.forward();
        optimizer.zeroGrad();
        program.backward();
        out.losses.push_back(program.value(h.loss));
        out.thetaGrads.push_back(pl.theta.grad);
        out.wGrads.push_back(pl.w.grad);
        optimizer.step();
        out.thetas.push_back(pl.theta.value);
    }
    return out;
}

void
expectBitwiseEqual(const Trajectory& a, const Trajectory& b)
{
    ASSERT_EQ(a.losses.size(), b.losses.size());
    for (std::size_t i = 0; i < a.losses.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(a.losses[i], b.losses[i]))
            << "loss diverged at iteration " << i;
        EXPECT_TRUE(bitwiseEqual(a.thetaGrads[i], b.thetaGrads[i]))
            << "theta grad diverged at iteration " << i;
        EXPECT_TRUE(bitwiseEqual(a.wGrads[i], b.wGrads[i]))
            << "w grad diverged at iteration " << i;
        EXPECT_TRUE(bitwiseEqual(a.thetas[i], b.thetas[i]))
            << "theta diverged at iteration " << i;
    }
}

} // namespace

TEST(ProgramParity, ReplayMatchesTapeRebuildBitwiseOnRandomEGraphs)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        util::ThreadPool::setGlobalThreads(threads);
        // Two seeds per rule.
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            const Rule rule = kRules[seed % 3];
            SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                         std::to_string(threads) + " threads");
            util::Rng rng(seed);
            const eg::EGraph g = randomEGraph(rng);
            util::Rng rebuildRng(seed * 101);
            util::Rng compiledRng(seed * 101);
            Pipeline rebuilt(g, rebuildRng, rule);
            Pipeline compiled(g, compiledRng, rule);
            const Trajectory a = runRebuild(rebuilt);
            const Trajectory b = runCompiled(compiled);
            expectBitwiseEqual(a, b);
        }
    }
    util::ThreadPool::setGlobalThreads(1); // restore for other tests
}

TEST(ProgramParity, ThreadCountDoesNotChangeCompiledResults)
{
    util::Rng graphRng(9);
    const eg::EGraph g = randomEGraph(graphRng);
    for (const Rule rule : kRules) {
        auto runAt = [&](std::size_t threads) {
            util::ThreadPool::setGlobalThreads(threads);
            util::Rng rng(77);
            Pipeline pl(g, rng, rule);
            return runCompiled(pl);
        };
        const Trajectory serial = runAt(1);
        const Trajectory parallel = runAt(4);
        util::ThreadPool::setGlobalThreads(1);
        expectBitwiseEqual(serial, parallel);
    }
}

TEST(Program, ReplayTwiceWithoutStepIsIdentical)
{
    util::Rng rng(5);
    const eg::EGraph g = randomEGraph(rng);
    Pipeline pl(g, rng);
    Tape recorder;
    const Handles h = pl.build(recorder);
    ad::Program program(std::move(recorder), h.loss, {h.cp});
    program.forward();
    const Tensor first = program.value(h.loss);
    const Tensor firstCp = program.value(h.cp);
    program.forward();
    EXPECT_TRUE(bitwiseEqual(first, program.value(h.loss)));
    EXPECT_TRUE(bitwiseEqual(firstCp, program.value(h.cp)));
}

TEST(Program, PlanBeatsRebuildFootprint)
{
    util::Rng rng(6);
    const eg::EGraph g = randomEGraph(rng);
    Pipeline pl(g, rng);
    Tape recorder;
    const Handles h = pl.build(recorder);
    const std::size_t recorded = recorder.numNodes();
    ad::Program program(std::move(recorder), h.loss, {h.cp});
    const ad::ProgramStats& stats = program.stats();
    // Sources drop out of the schedule.
    EXPECT_GT(stats.ops, 0u);
    EXPECT_LT(stats.ops, recorded);
    // The static plan reuses slots, so it must be strictly smaller than
    // what one rebuild iteration allocates.
    EXPECT_GT(stats.naiveBytes, 0u);
    EXPECT_LT(stats.plannedBytes, stats.naiveBytes);
    EXPECT_GT(stats.reuseRatio(), 1.0);
    EXPECT_GT(stats.valueSlots, 0u);
    EXPECT_GT(stats.gradSlots, 0u);
    EXPECT_FALSE(program.checkInvariants().has_value())
        << *program.checkInvariants();
}

