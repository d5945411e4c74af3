#include "extraction/bottom_up.hpp"

#include <cmath>
#include <deque>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace smoothe::extract {

using eg::ClassId;
using eg::EGraph;
using eg::kNoNode;
using eg::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Shared fixed-point: per-class best tree cost and chosen node. */
struct FixedPoint
{
    std::vector<double> classCost;
    std::vector<NodeId> classChoice;
    std::size_t relaxations = 0; ///< class-cost improvements taken
};

/**
 * Relaxes the egg-style worklist to a fixed point under per-node costs
 * node_costs: infinite costs everywhere, leaves seed the queue. When
 * tie_break_children is true, equal-cost updates prefer the node with
 * fewer children (the gym's heuristic+ tweak).
 */
FixedPoint
runWorklist(const EGraph& graph, const std::vector<double>& node_costs,
            bool tie_break_children)
{
    obs::Span span("bottom_up.worklist", "extraction");
    const std::size_t m = graph.numClasses();
    FixedPoint fp;
    fp.classCost.assign(m, kInf);
    fp.classChoice.assign(m, kNoNode);

    std::deque<NodeId> queue;
    std::vector<bool> inQueue(graph.numNodes(), false);
    for (NodeId nid = 0; nid < graph.numNodes(); ++nid) {
        if (graph.node(nid).children.empty()) {
            queue.push_back(nid);
            inQueue[nid] = true;
        }
    }

    auto aggregated = [&](NodeId nid) -> double {
        double total = node_costs[nid];
        for (ClassId child : graph.node(nid).children) {
            if (fp.classCost[child] == kInf)
                return kInf;
            total += fp.classCost[child];
        }
        return total;
    };

    while (!queue.empty()) {
        const NodeId nid = queue.front();
        queue.pop_front();
        inQueue[nid] = false;

        const double cost = aggregated(nid);
        if (cost == kInf)
            continue;
        const ClassId cls = graph.classOf(nid);
        bool better = cost < fp.classCost[cls];
        if (!better && tie_break_children && cost == fp.classCost[cls] &&
            fp.classChoice[cls] != kNoNode) {
            better = graph.node(nid).children.size() <
                     graph.node(fp.classChoice[cls]).children.size();
        }
        if (better) {
            ++fp.relaxations;
            fp.classCost[cls] = cost;
            fp.classChoice[cls] = nid;
            for (NodeId parent : graph.parents(cls)) {
                if (!inQueue[parent]) {
                    queue.push_back(parent);
                    inQueue[parent] = true;
                }
            }
        }
    }
    return fp;
}

/** The heuristics' run: the graph's own node costs, with the
 *  relaxations counted. */
FixedPoint
runHeuristicWorklist(const EGraph& graph, bool tie_break_children)
{
    static obs::Counter& updates = obs::counter("bottom_up.relaxations");
    std::vector<double> costs(graph.numNodes());
    for (NodeId nid = 0; nid < graph.numNodes(); ++nid)
        costs[nid] = graph.node(nid).cost;
    FixedPoint fp = runWorklist(graph, costs, tie_break_children);
    updates.add(fp.relaxations);
    return fp;
}

/**
 * One round of DAG-aware refinement (the gym's heuristic+ post-pass).
 * Walks needed classes top-down; for each, re-evaluates every member
 * e-node charging zero for children already selected elsewhere in the
 * extraction, and switches when strictly cheaper.
 */
void
refineDagAware(const EGraph& graph, FixedPoint& fp)
{
    if (fp.classChoice[graph.root()] == kNoNode)
        return;
    std::vector<bool> selectedClass(graph.numClasses(), false);
    std::vector<ClassId> order{graph.root()};
    selectedClass[graph.root()] = true;
    for (std::size_t head = 0; head < order.size(); ++head) {
        const ClassId cls = order[head];
        const NodeId cur = fp.classChoice[cls];
        NodeId best = cur;
        double bestCost = kInf;
        auto scoreNode = [&](NodeId nid) -> double {
            double total = graph.node(nid).cost;
            for (ClassId child : graph.node(nid).children) {
                if (selectedClass[child])
                    continue; // shared: already paid for
                if (fp.classCost[child] == kInf)
                    return kInf;
                total += fp.classCost[child];
            }
            return total;
        };
        bestCost = scoreNode(cur);
        for (NodeId nid : graph.nodesInClass(cls)) {
            if (nid == cur)
                continue;
            const double cost = scoreNode(nid);
            if (cost < bestCost) {
                bestCost = cost;
                best = nid;
            }
        }
        fp.classChoice[cls] = best;
        for (ClassId child : graph.node(best).children) {
            if (!selectedClass[child] && fp.classChoice[child] != kNoNode) {
                selectedClass[child] = true;
                order.push_back(child);
            }
        }
    }
}

/** Builds the final Selection from per-class choices, rooted pruning. */
ExtractionResult
buildResult(const EGraph& graph, const FixedPoint& fp, double seconds)
{
    ExtractionResult result;
    result.seconds = seconds;
    if (fp.classChoice[graph.root()] == kNoNode) {
        result.status = SolveStatus::Infeasible;
        result.cost = kInf;
        return result;
    }
    result.selection = rootedSelection(graph, fp.classChoice);
    const auto check = validate(graph, result.selection);
    if (!check.ok()) {
        result.status = SolveStatus::Failed;
        result.cost = kInf;
        result.note = check.message;
        return result;
    }
    result.status = SolveStatus::Feasible;
    result.cost = dagCost(graph, result.selection);
    return result;
}

} // namespace

Selection
bottomUpWithCosts(const EGraph& graph, const std::vector<double>& node_costs)
{
    const FixedPoint fp =
        runWorklist(graph, node_costs, /*tie_break_children=*/false);
    return rootedSelection(graph, fp.classChoice);
}

ExtractionResult
BottomUpExtractor::extractImpl(const EGraph& graph,
                               const ExtractOptions& options)
{
    (void)options;
    util::Timer timer;
    const FixedPoint fp =
        runHeuristicWorklist(graph, /*tie_break_children=*/false);
    return buildResult(graph, fp, timer.seconds());
}

ExtractionResult
FasterBottomUpExtractor::extractImpl(const EGraph& graph,
                                 const ExtractOptions& options)
{
    (void)options;
    util::Timer timer;
    const FixedPoint pure =
        runHeuristicWorklist(graph, /*tie_break_children=*/true);
    FixedPoint fp = pure;
    refineDagAware(graph, fp);
    ExtractionResult refined = buildResult(graph, fp, timer.seconds());
    if (refined.ok())
        return refined;
    // The DAG-aware refinement can, on cyclic e-graphs, select into a
    // cycle; fall back to the plain fixed point which is always acyclic.
    return buildResult(graph, pure, timer.seconds());
}

} // namespace smoothe::extract
