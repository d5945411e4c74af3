#include "smoothe/smoothe.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "autodiff/adam.hpp"
#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "check/contracts.hpp"
#include "extraction/validate.hpp"
#include "obs/obs.hpp"
#include "smoothe/sampler.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::core {

using ad::MatrixEntry;
using ad::Param;
using ad::Tape;
using ad::Tensor;
using ad::VarId;
using eg::ClassId;
using eg::EGraph;
using eg::kNoNode;
using eg::NodeId;
using extract::ExtractionResult;
using extract::ExtractOptions;
using extract::Selection;
using extract::SolveStatus;
using tensor::Arena;
using tensor::SegmentIndex;

const char*
toString(Assumption assumption)
{
    switch (assumption) {
      case Assumption::Independent: return "independent";
      case Assumption::Correlated: return "correlated";
      case Assumption::Hybrid: return "hybrid";
    }
    return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Immutable per-graph index structures shared by all iterations. */
struct Prepared
{
    std::size_t numNodes = 0;
    std::size_t numClasses = 0;
    ClassId root = eg::kNoClass;

    SegmentIndex classMembers;           ///< class -> member node columns
    SegmentIndex parentIndex;            ///< class -> distinct parent nodes
    std::vector<std::uint32_t> node2class;

    struct Scc
    {
        std::size_t dim = 0;
        std::vector<MatrixEntry> entries;
    };
    std::vector<Scc> sccs;
    /** The real cyclic SCCs, also under the dense ablation: the sampler's
     *  repair check needs them either way. */
    extract::CyclicSccs cyclic;

    std::size_t propIterations = 0;

    static Prepared build(const EGraph& graph, const SmoothEConfig& config);

    /**
     * Phi's probability propagation (Eqs. 5-7) over this graph: q starts
     * as the root one-hot and runs propIterations parallel-schedule
     * rounds under config.assumption, the root pinned to 1 after each.
     */
    tensor::PropagateSpec
    propagation(const SmoothEConfig& config) const
    {
        tensor::PropagateSpec spec;
        spec.node2class = &node2class;
        spec.parents = &parentIndex;
        spec.root = static_cast<std::uint32_t>(root);
        spec.rounds = propIterations;
        spec.assumption = config.assumption;
        return spec;
    }
};

Prepared
Prepared::build(const EGraph& graph, const SmoothEConfig& config)
{
    Prepared prep;
    const std::size_t n = graph.numNodes();
    const std::size_t m = graph.numClasses();
    prep.numNodes = n;
    prep.numClasses = m;
    prep.root = graph.root();

    // class -> member nodes.
    std::vector<std::uint32_t> nodeClass(n);
    for (NodeId nid = 0; nid < n; ++nid)
        nodeClass[nid] = graph.classOf(nid);
    prep.classMembers = SegmentIndex::fromAssignment(nodeClass, m);
    prep.node2class = std::move(nodeClass);

    // class -> distinct parent nodes (already deduplicated by EGraph).
    prep.parentIndex.offsets.assign(m + 1, 0);
    for (ClassId cls = 0; cls < m; ++cls) {
        prep.parentIndex.offsets[cls + 1] =
            prep.parentIndex.offsets[cls] +
            static_cast<std::uint32_t>(graph.parents(cls).size());
    }
    prep.parentIndex.items.reserve(prep.parentIndex.offsets[m]);
    for (ClassId cls = 0; cls < m; ++cls) {
        for (NodeId parent : graph.parents(cls))
            prep.parentIndex.items.push_back(parent);
    }

    // NOTEARS structure.
    auto addScc = [&](const std::vector<ClassId>& classes) {
        Scc scc;
        scc.dim = classes.size();
        std::vector<std::uint32_t> local(m,
                                         std::numeric_limits<
                                             std::uint32_t>::max());
        for (std::size_t i = 0; i < classes.size(); ++i)
            local[classes[i]] = static_cast<std::uint32_t>(i);
        for (ClassId cls : classes) {
            for (NodeId nid : graph.nodesInClass(cls)) {
                const auto kids = graph.children(nid);
                std::vector<ClassId> children(kids.begin(), kids.end());
                std::sort(children.begin(), children.end());
                children.erase(
                    std::unique(children.begin(), children.end()),
                    children.end());
                for (ClassId child : children) {
                    if (local[child] ==
                        std::numeric_limits<std::uint32_t>::max())
                        continue;
                    MatrixEntry entry;
                    entry.column = nid;
                    entry.position = local[cls] * scc.dim + local[child];
                    scc.entries.push_back(entry);
                }
            }
        }
        prep.sccs.push_back(std::move(scc));
    };

    prep.cyclic = extract::CyclicSccs::of(graph);
    if (config.sccDecomposition) {
        // Only cyclic SCCs (size > 1, or self-loop classes) can hold
        // cycles; everything else needs no penalty (Section 4.3).
        for (const auto& scc : prep.cyclic.classes)
            addScc(scc);
    } else if (!prep.cyclic.classes.empty()) {
        // Ablation: one dense M x M transition matrix for the whole graph.
        std::vector<ClassId> all(m);
        for (ClassId cls = 0; cls < m; ++cls)
            all[cls] = cls;
        addScc(all);
    }

    // Propagation depth: BFS levels of the class dependency graph from the
    // root (probabilities flow root -> leaves), clamped.
    if (config.propagationIterations > 0) {
        prep.propIterations = config.propagationIterations;
    } else {
        std::vector<std::uint32_t> level(
            m, std::numeric_limits<std::uint32_t>::max());
        std::vector<ClassId> frontier{graph.root()};
        level[graph.root()] = 0;
        std::uint32_t depth = 0;
        std::size_t head = 0;
        std::vector<ClassId> order = std::move(frontier);
        while (head < order.size()) {
            const ClassId cls = order[head++];
            depth = std::max(depth, level[cls]);
            for (NodeId nid : graph.nodesInClass(cls)) {
                for (ClassId child : graph.children(nid)) {
                    if (level[child] ==
                        std::numeric_limits<std::uint32_t>::max()) {
                        level[child] = level[cls] + 1;
                        order.push_back(child);
                    }
                }
            }
        }
        prep.propIterations =
            std::clamp<std::size_t>(static_cast<std::size_t>(depth) + 2,
                                    4, 48);
    }
    return prep;
}

/** Node handles into one recorded forward pass. */
struct ForwardHandles
{
    VarId loss = -1;
    VarId cp = -1;      ///< conditional probabilities (sampling reads this)
    VarId costs = -1;   ///< per-seed differentiable cost, B x 1
    VarId penalty = -1; ///< NOTEARS h(A) total, -1 when acyclic
};

/**
 * Records one forward pass on the tape. The NOTEARS coefficient is
 * lambda (Eq. 10a), times B under the batched approximation: that
 * computes the penalty once for the averaged matrix, and scaling by B
 * keeps the per-seed gradient magnitude comparable to the per-seed mode.
 */
ForwardHandles
buildForward(Tape& tape, Param& theta, const Prepared& prep,
             const cost::CostModel& model, const SmoothEConfig& config)
{
    const VarId thetaVar = tape.leaf(&theta);
    VarId cp = -1;
    {
        obs::Span span("softmax");
        cp = tape.segmentSoftmax(thetaVar, &prep.classMembers);
    }

    obs::Span propagateSpan("propagate");
    const VarId p = tape.propagate(cp, prep.propagation(config));
    propagateSpan.end();

    const VarId costs = model.build(tape, p); // B x 1
    VarId loss = tape.sumAll(costs);

    obs::Span penaltySpan("penalty");
    VarId penalty = -1;
    for (const Prepared::Scc& scc : prep.sccs) {
        const VarId a = tape.scatterMatrix(cp, &scc.entries, scc.dim,
                                           config.batchedMatexp);
        // tr(exp(A)) - d; the constant d does not affect gradients but we
        // subtract it so the reported penalty is the paper's h(A).
        const VarId tr = tape.trExpm(a, scc.dim);
        const VarId h = tape.addScalar(
            tape.sumAll(tr),
            -static_cast<float>(scc.dim) *
                static_cast<float>(tape.rows(tr)));
        penalty = penalty < 0 ? h : tape.add(penalty, h);
    }
    penaltySpan.end();
    if (penalty >= 0) {
        const float coeff =
            config.lambda * (config.batchedMatexp
                                 ? static_cast<float>(tape.rows(cp))
                                 : 1.0f);
        loss = tape.add(loss, tape.scale(penalty, coeff));
    }

    ForwardHandles handles;
    handles.loss = loss;
    handles.cp = cp;
    handles.costs = costs;
    handles.penalty = penalty;
    return handles;
}

/**
 * Everything one SmoothE run leaves behind for the next epoch: the arena
 * (declared first so every tensor below dies before it), the index
 * structures the compiled Program's op pointers refer into (declared
 * before the Program so they outlive it), theta with its Adam state,
 * and the Program itself. A one-shot extractWithCost uses a stack-local
 * instance; extractIncremental keeps one alive inside the caller's
 * IncrementalState.
 */
struct WarmState : extract::IncrementalBlob
{
    explicit WarmState(std::size_t memory_budget) : arena(memory_budget) {}

    Arena arena;
    std::optional<Prepared> prep;
    Param theta;
    std::optional<ad::Adam> optimizer;
    std::optional<ad::Program> program;
    ForwardHandles handles;
    /** The converged result of the previous epoch; re-emitted verbatim
     *  when an identity delta proves the graph did not change. */
    std::optional<ExtractionResult> lastResult;
};

/**
 * Carries theta and the Adam moments into the grown id space.
 *
 * Carried nodes copy their previous column; brand-new nodes draw fresh
 * from the cold-start prior N(0, 1), serially in node order so the
 * result is bit-identical at every thread count. When classes merged,
 * each source group is re-centered per row: softmax is shift-invariant
 * within a class, so centering preserves every carried *relative*
 * preference while removing the arbitrary cross-group offset that would
 * otherwise bias the merged softmax toward whichever source class
 * happened to sit higher. Adam moments are carried element-wise (zero
 * for new columns); the bias-correction step count rides along with the
 * optimizer object itself.
 */
void
warmStartParams(WarmState& ws, const eg::GraphDelta& delta,
                const std::vector<std::uint32_t>& prev_node2class,
                const Prepared& prep, std::size_t batch, util::Rng& rng)
{
    const std::size_t numNodes = prep.numNodes;
    Tensor prevTheta = std::move(ws.theta.value);
    SMOOTHE_CHECK(prevTheta.rows() == batch,
                  "smoothe: warm state carries batch %zu but the config "
                  "asks for %zu",
                  prevTheta.rows(), batch);

    Tensor theta(batch, numNodes, &ws.arena);
    for (std::size_t nid = 0; nid < numNodes; ++nid) {
        const NodeId prev = delta.prevNode[nid];
        if (prev == kNoNode) {
            for (std::size_t b = 0; b < batch; ++b)
                theta.at(b, nid) =
                    static_cast<float>(rng.normal(0.0, 1.0));
        } else {
            for (std::size_t b = 0; b < batch; ++b)
                theta.at(b, nid) = prevTheta.at(b, prev);
        }
    }

    std::vector<NodeId> members;
    std::vector<std::uint32_t> groupOf;
    for (ClassId c = 0; c < prep.numClasses; ++c) {
        if (delta.prevClasses[c].size() < 2)
            continue;
        members.clear();
        groupOf.clear();
        for (std::uint32_t off = prep.classMembers.offsets[c];
             off < prep.classMembers.offsets[c + 1]; ++off) {
            const NodeId nid = prep.classMembers.items[off];
            const NodeId prev = delta.prevNode[nid];
            if (prev == kNoNode)
                continue; // fresh draws carry no stale offset
            members.push_back(nid);
            groupOf.push_back(prev_node2class[prev]);
        }
        for (const ClassId source : delta.prevClasses[c]) {
            for (std::size_t b = 0; b < batch; ++b) {
                double sum = 0.0;
                std::size_t count = 0;
                for (std::size_t i = 0; i < members.size(); ++i) {
                    if (groupOf[i] != source)
                        continue;
                    sum += theta.at(b, members[i]);
                    ++count;
                }
                if (count == 0)
                    continue;
                const float mean =
                    static_cast<float>(sum / static_cast<double>(count));
                for (std::size_t i = 0; i < members.size(); ++i) {
                    if (groupOf[i] == source)
                        theta.at(b, members[i]) -= mean;
                }
            }
        }
    }

    ws.theta.value = std::move(theta);
    ws.theta.grad = Tensor(batch, numNodes);
    auto remapMoment = [&](Tensor& moment) {
        Tensor next(batch, numNodes, &ws.arena);
        for (std::size_t nid = 0; nid < numNodes; ++nid) {
            const NodeId prev = delta.prevNode[nid];
            if (prev == kNoNode)
                continue;
            for (std::size_t b = 0; b < batch; ++b)
                next.at(b, nid) = moment.at(b, prev);
        }
        moment = std::move(next);
    };
    remapMoment(ws.optimizer->moment1(0));
    remapMoment(ws.optimizer->moment2(0));
    obs::counter("smoothe.warm_starts").add(1);
}

} // namespace

Probabilities
computeProbabilities(const EGraph& graph, const Tensor& theta,
                     Assumption assumption,
                     std::size_t propagation_iterations)
{
    SmoothEConfig config;
    config.assumption = assumption;
    config.propagationIterations = propagation_iterations;
    const Prepared prep = Prepared::build(graph, config);
    const tensor::PropagateSpec spec = prep.propagation(config);
    const std::size_t batch = theta.rows();

    Probabilities out;
    out.cp = Tensor(batch, prep.numNodes);
    tensor::segmentSoftmaxInto(theta, prep.classMembers, out.cp);
    out.p = Tensor(batch, prep.numNodes);
    Tensor saved(batch, tensor::propagateSavedCols(spec));
    Tensor scratch(batch, tensor::propagateScratchCols(spec));
    tensor::propagateInto(out.cp, spec, out.p, saved, scratch);
    out.q = Tensor(batch, prep.numClasses);
    tensor::propagatedClassesInto(spec, saved, out.q);
    return out;
}

ExtractionResult
SmoothEExtractor::extractImpl(const EGraph& graph,
                              const ExtractOptions& options)
{
    const cost::LinearCost linear(graph);
    return extractWithCost(graph, linear, options);
}

namespace {

/**
 * The optimization loop shared by one-shot and warm-started runs. A
 * null `delta` (or an empty ws.prep) starts cold; otherwise theta and
 * the Adam moments carried in `ws` are remapped through the delta and
 * the iteration is recorded and compiled afresh for the grown graph.
 */
ExtractionResult
runSmoothE(const EGraph& graph, const cost::CostModel& model,
           const ExtractOptions& options, const SmoothEConfig& config,
           SmoothEDiagnostics& diagnostics, WarmState& ws,
           const eg::GraphDelta* delta)
{
    obs::Counter& iterationsMetric = obs::counter("smoothe.iterations");
    obs::Counter& samplesTotal = obs::counter("sampler.samples");
    obs::Counter& samplesValid = obs::counter("sampler.valid_samples");
    const std::uint64_t samplesTotalBefore = samplesTotal.get();
    const std::uint64_t samplesValidBefore = samplesValid.get();

    diagnostics = SmoothEDiagnostics{};
    ExtractionResult result;
    util::Timer timer;
    util::Deadline deadline(options.timeLimitSeconds);
    util::Rng rng(options.seed);
    ConvergenceRecorder recorder;

    Arena& arena = ws.arena;

    diagnostics.threads = util::ThreadPool::global().size();
    obs::gauge("smoothe.threads")
        .set(static_cast<double>(diagnostics.threads));

    obs::Span extractSpan("smoothe.extract");

    // Shared by the success and OOM paths: record peak arena usage and
    // the sampler hit rate for whatever portion of the run completed,
    // and hand the convergence trajectory to diagnostics + the report.
    auto finalizeDiagnostics = [&]() {
        diagnostics.convergence = recorder.ordered();
        diagnostics.convergenceDropped = recorder.dropped();
        if (obs::Report* report = obs::Report::current()) {
            // Distinguishes the extractions of a multi-run bench inside
            // one accumulated report series.
            static std::atomic<std::size_t> runCounter{0};
            recorder.dumpTo(*report, "smoothe.convergence",
                            runCounter.fetch_add(1));
        }
        diagnostics.peakMemoryBytes = arena.peak();
        obs::gauge("arena.peak_bytes")
            .set(static_cast<double>(arena.peak()));
        obs::gauge("tape.peak_nodes")
            .set(static_cast<double>(diagnostics.tapeNodes));
        const std::uint64_t attempts =
            samplesTotal.get() - samplesTotalBefore;
        const std::uint64_t valid = samplesValid.get() - samplesValidBefore;
        obs::gauge("sampler.valid_rate")
            .set(attempts == 0
                     ? 0.0
                     : static_cast<double>(valid) /
                           static_cast<double>(attempts));
    };

    try {
        const bool warm = ws.prep.has_value() && delta != nullptr;

        // Identity delta on an unchanged graph: the carried state already
        // converged on this exact extraction problem, so the cached
        // selection IS the answer — the no-change contract of incremental
        // computation. Saturation loops hit this every epoch once the
        // rules quiesce under their node budget.
        if (warm && ws.lastResult.has_value() && delta->isIdentity() &&
            ws.prep->numNodes == graph.numNodes() &&
            ws.prep->numClasses == graph.numClasses()) {
            obs::counter("smoothe.identity_skips").add(1);
            finalizeDiagnostics();
            result = *ws.lastResult;
            result.seconds = timer.seconds();
            return result;
        }

        // The old Program goes first: its op pointers refer into the
        // Prepared that is about to be replaced.
        std::vector<std::uint32_t> prevNode2class;
        {
            auto setupScope = diagnostics.profile.other();
            ws.program.reset();
            std::size_t prevIters = 0;
            if (warm) {
                prevNode2class = std::move(ws.prep->node2class);
                prevIters = ws.prep->propIterations;
            } else {
                ws.optimizer.reset();
            }
            ws.prep.emplace(Prepared::build(graph, config));
            // With auto depth the carried depth is a floor: it already
            // covered the (grow-only) graph, so a shallower BFS depth
            // does not shorten the propagation a warm epoch runs.
            if (config.propagationIterations == 0)
                ws.prep->propIterations =
                    std::max(ws.prep->propIterations, prevIters);
        }
        const Prepared& prep = *ws.prep;
        diagnostics.propagationIterations = prep.propIterations;
        obs::gauge("smoothe.propagation_iterations")
            .set(static_cast<double>(prep.propIterations));
        diagnostics.sccCount = prep.sccs.size();
        for (const auto& scc : prep.sccs)
            diagnostics.largestScc =
                std::max(diagnostics.largestScc, scc.dim);

        const std::size_t batch = std::max<std::size_t>(1, config.numSeeds);
        Param& theta = ws.theta;
        if (warm) {
            warmStartParams(ws, *delta, prevNode2class, prep, batch, rng);
        } else {
            theta = Param{Tensor(batch, prep.numNodes, &arena)};
            for (std::size_t i = 0; i < theta.value.size(); ++i)
                theta.value.data()[i] =
                    static_cast<float>(rng.normal(0.0, 1.0));
            ws.optimizer.emplace(std::vector<Param*>{&theta},
                                 ad::AdamConfig{config.learningRate, 0.9f,
                                                0.999f, 1e-8f},
                                 &arena);
        }
        ad::Adam& optimizer = *ws.optimizer;

        Selection bestSelection = Selection::empty(graph);
        double bestCost = kInf;
        std::size_t sinceImprovement = 0;

        // Compile-once/replay-many: record the iteration graph's shapes
        // a single time, plan static buffers, and replay it every Adam
        // step. Recording computes no value, so a warm epoch pays only
        // for the record and compile of its grown graph.
        ForwardHandles& handles = ws.handles;
        std::optional<ad::Program>& program = ws.program;
        {
            if (warm)
                obs::counter("program.rerecord").add(1);
            auto scope = diagnostics.profile.loss();
            obs::Span recordSpan("program.record");
            Tape recorder(&arena);
            handles = buildForward(recorder, theta, prep, model, config);
            diagnostics.tapeNodes = recorder.numNodes();
            std::vector<VarId> outputs{handles.cp, handles.costs};
            if (handles.penalty >= 0)
                outputs.push_back(handles.penalty);
            program.emplace(std::move(recorder), handles.loss,
                            std::move(outputs));
        }
        diagnostics.programBuffers =
            program->stats().valueSlots + program->stats().gradSlots;
        diagnostics.bufferReuseRatio = program->stats().reuseRatio();
        obs::gauge("tape.program_buffers")
            .set(static_cast<double>(diagnostics.programBuffers));
        obs::gauge("arena.reuse_ratio").set(diagnostics.bufferReuseRatio);

        // Each seed keeps its sampler, and its last certified sample
        // with that sample's verdict and cost, for the whole run.
        std::vector<SeedSampler> seeds;
        seeds.reserve(batch);
        for (std::size_t b = 0; b < batch; ++b)
            seeds.emplace_back(graph, prep.cyclic, model);
        std::vector<std::uint8_t> drawnValid(batch, 0);

        // Why the loop below ends: exactly one stop counter per run.
        const char* stopReason = "smoothe.stop.max_iterations";
        for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
            if (deadline.expired()) {
                stopReason = "smoothe.stop.deadline";
                break;
            }
            ++diagnostics.iterations;
            iterationsMetric.add(1);

            obs::Span iterSpan("iteration");
            {
                auto scope = diagnostics.profile.loss();
                obs::Span forwardSpan("program.forward");
                program->forward();
            }
            {
                auto scope = diagnostics.profile.gradient();
                obs::Span adamSpan("adam");
                optimizer.zeroGrad();
                program->backward();
                optimizer.step();
            }
            if (obs::traceEnabled()) {
                obs::traceCounter("smoothe.loss",
                                  program->value(handles.loss).at(0, 0));
                if (handles.penalty >= 0) {
                    obs::traceCounter(
                        "smoothe.penalty",
                        program->value(handles.penalty).at(0, 0));
                }
            }

            // Sampling stage: seeds are independent, so chunks of the
            // batch run concurrently; the incumbent reduction below stays
            // serial and in seed order, keeping results identical to the
            // sequential schedule for any thread count.
            double iterBest = kInf;
            {
                auto scope = diagnostics.profile.sampling();
                const Tensor& cp = program->value(handles.cp);
                const std::size_t rows = cp.rows();
                util::ThreadPool::global().parallelForChunks(
                    0, rows, 1,
                    [&](std::size_t chunkBegin, std::size_t chunkEnd) {
                        obs::Span chunkSpan("sample.chunk", "sampler");
                        for (std::size_t b = chunkBegin; b < chunkEnd;
                             ++b) {
                            drawnValid[b] = seeds[b].draw(
                                cp.row(b), config.repairSampling);
                        }
                    });
                for (std::size_t b = 0; b < rows; ++b) {
                    if (!drawnValid[b])
                        continue;
                    const double cost = seeds[b].cost();
                    iterBest = std::min(iterBest, cost);
                    if (cost < bestCost) {
                        bestCost = cost;
                        bestSelection.choice = seeds[b].selection().choice;
                        sinceImprovement = 0;
                        obs::traceInstant("smoothe.incumbent");
                        obs::traceCounter("smoothe.best_cost", bestCost);
                        result.trace.push_back(
                            {timer.seconds(), bestCost});
                    }
                }
                ++sinceImprovement;
            }

            // Convergence telemetry, one point per iteration.
            {
                ConvergencePoint point;
                point.iteration = iter;
                point.loss = program->value(handles.loss).at(0, 0);
                const Tensor& costs = program->value(handles.costs);
                double softSum = 0.0;
                for (std::size_t b = 0; b < costs.rows(); ++b)
                    softSum += costs.at(b, 0);
                point.softCost =
                    softSum / static_cast<double>(costs.rows());
                point.sampledCost = bestCost; // kInf until a valid sample
                point.iterSampledCost = iterBest;
                if (handles.penalty >= 0)
                    point.penalty = program->value(handles.penalty).at(0, 0);
                double gradSq = 0.0;
                for (std::size_t i = 0; i < theta.grad.size(); ++i) {
                    const double g = theta.grad.data()[i];
                    gradSq += g * g;
                }
                point.gradNorm = std::sqrt(gradSq);
                point.wallSeconds = timer.seconds();
                recorder.record(point);
            }

            if (sinceImprovement > config.patience) {
                stopReason = "smoothe.stop.patience";
                break;
            }
        }
        obs::counter(stopReason).add(1);

        finalizeDiagnostics();
        result.seconds = timer.seconds();
        if (bestCost == kInf) {
            std::fprintf(stderr,
                         "smoothe: no valid sample after %zu iterations\n",
                         diagnostics.iterations);
            ws.lastResult.reset();
            result.status = SolveStatus::Failed;
            result.cost = kInf;
            result.note = "no valid sample";
            return result;
        }
        result.status = SolveStatus::Feasible;
        result.selection = std::move(bestSelection);
        result.cost = bestCost;
        ws.lastResult = result;
        return result;
    } catch (const tensor::OomError& oom) {
        diagnostics.outOfMemory = true;
        finalizeDiagnostics();
        obs::counter("extraction.oom").add(1);
        obs::traceInstant("smoothe.oom");
        std::fprintf(stderr,
                     "smoothe: out of memory after %zu iterations: %s\n",
                     diagnostics.iterations, oom.what());
        // The carried state may be mid-remap: drop it so the next epoch
        // runs cold instead of warm-starting from inconsistent buffers.
        ws.program.reset();
        ws.optimizer.reset();
        ws.prep.reset();
        ws.lastResult.reset();
        result.status = SolveStatus::Failed;
        result.cost = kInf;
        result.seconds = timer.seconds();
        result.note = std::string("OOM: ") + oom.what();
        return result;
    }
}

} // namespace

ExtractionResult
SmoothEExtractor::extractWithCost(const EGraph& graph,
                                  const cost::CostModel& model,
                                  const ExtractOptions& options)
{
    WarmState oneShot(config_.memoryBudgetBytes);
    return runSmoothE(graph, model, options, config_, diagnostics_,
                      oneShot, nullptr);
}

ExtractionResult
SmoothEExtractor::extractIncremental(const EGraph& graph,
                                     const eg::GraphDelta& delta,
                                     extract::IncrementalState& state,
                                     const ExtractOptions& options)
{
    obs::Span span(name(), "extraction");
    obs::counter("extraction." + name() + ".incremental_runs").add(1);
    SMOOTHE_DCHECK_OK(delta.checkConsistent(graph));
    const bool warm = !state.empty();
    if (warm) {
        // Reusing a state across extractors or e-graph lineages would
        // silently warm-start from unrelated ids; the delta's prev
        // counts must describe exactly the graph this state last saw.
        SMOOTHE_CHECK(state.owner_ == this,
                      "incremental state belongs to another extractor");
        SMOOTHE_CHECK(state.graphNodes_ == delta.prevNumNodes &&
                          state.graphClasses_ == delta.prevNumClasses,
                      "stale incremental state: it last saw %zu nodes / "
                      "%zu classes but the delta maps from %zu / %zu — "
                      "reset() the state before switching e-graphs",
                      state.graphNodes_, state.graphClasses_,
                      delta.prevNumNodes, delta.prevNumClasses);
    } else {
        // The first epoch runs cold but leaves its converged parameters
        // behind for the next epoch to warm from.
        state.blob_ = std::make_unique<WarmState>(config_.memoryBudgetBytes);
    }
    const cost::LinearCost linear(graph);
    ExtractionResult result = runSmoothE(
        graph, linear, options, config_, diagnostics_,
        static_cast<WarmState&>(*state.blob_), warm ? &delta : nullptr);
    state.owner_ = this;
    ++state.epoch_;
    state.graphNodes_ = graph.numNodes();
    state.graphClasses_ = graph.numClasses();
    SMOOTHE_DCHECK_OK(extract::checkResultInvariants(graph, result));
    return result;
}

} // namespace smoothe::core
