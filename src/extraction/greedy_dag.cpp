#include "extraction/greedy_dag.hpp"

#include <cstdio>
#include <deque>
#include <limits>
#include <map>

#include "egraph/delta.hpp"
#include "extraction/bottom_up.hpp"
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

/** A class's best known solution: per-class choices + cached DAG cost. */
struct CostSet
{
    std::map<ClassId, NodeId> choices;
    double cost = kInf;
};

/** Carried per-class cost sets for incremental re-extraction. */
struct CarriedCostSets : IncrementalBlob
{
    std::vector<CostSet> best;
};

/** The cost-set propagation loop shared by cold and warm starts. */
void
relaxCostSets(const EGraph& graph, std::vector<CostSet>& best,
              std::deque<NodeId>& queue, std::vector<bool>& inQueue,
              util::Deadline& deadline)
{
    static obs::Counter& updates = obs::counter("greedy_dag.updates");
    while (!queue.empty() && !deadline.expired()) {
        const NodeId nid = queue.front();
        queue.pop_front();
        inQueue[nid] = false;
        const ClassId owner = graph.classOf(nid);

        // Merge the children's cost sets around this node's choice.
        CostSet candidate;
        candidate.choices[owner] = nid;
        bool feasible = true;
        for (ClassId child : graph.node(nid).children) {
            if (best[child].cost == kInf) {
                feasible = false;
                break;
            }
            for (const auto& [cls, choice] : best[child].choices) {
                // A child solution that already uses this node's class
                // would close a cycle through `owner`; reject.
                if (cls == owner) {
                    feasible = false;
                    break;
                }
                candidate.choices.emplace(cls, choice); // keep first
            }
            if (!feasible)
                break;
        }
        if (!feasible)
            continue;

        candidate.cost = 0.0;
        for (const auto& [cls, choice] : candidate.choices)
            candidate.cost += graph.node(choice).cost;

        if (candidate.cost + 1e-12 < best[owner].cost) {
            updates.add(1);
            best[owner] = std::move(candidate);
            for (NodeId parent : graph.parents(owner)) {
                if (!inQueue[parent]) {
                    queue.push_back(parent);
                    inQueue[parent] = true;
                }
            }
        }
    }
}

/** Turns converged cost sets into a validated rooted selection. */
ExtractionResult
finishFromCostSets(const EGraph& graph, const std::vector<CostSet>& best,
                   const util::Timer& timer, const ExtractOptions& options)
{
    ExtractionResult result;
    result.seconds = timer.seconds();
    if (best[graph.root()].cost == kInf) {
        result.status = SolveStatus::Infeasible;
        result.cost = kInf;
        return result;
    }

    Selection sel = Selection::empty(graph);
    for (const auto& [cls, choice] : best[graph.root()].choices)
        sel.choice[cls] = choice;
    // The union may contain entries no longer needed after conflicts were
    // resolved by "keep first"; restrict to the rooted closure.
    Selection rooted = Selection::empty(graph);
    std::vector<ClassId> worklist{graph.root()};
    rooted.choice[graph.root()] = sel.choice[graph.root()];
    bool complete = true;
    while (!worklist.empty() && complete) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        for (ClassId child : graph.node(rooted.choice[cls]).children) {
            if (rooted.choice[child] != kNoNode)
                continue;
            if (sel.choice[child] == kNoNode) {
                complete = false;
                break;
            }
            rooted.choice[child] = sel.choice[child];
            worklist.push_back(child);
        }
    }

    const auto check = complete
                           ? validate(graph, rooted)
                           : ValidationResult{Violation::MissingChild,
                                              "incomplete cost set"};
    if (!check.ok()) {
        // Inconsistent union (possible when conflicting child sets were
        // resolved keep-first): fall back to the tree-cost fixed point.
        std::fprintf(stderr, "smoothe: greedy-dag union invalid (%s); "
                             "falling back to heuristic+\n",
                     check.message.c_str());
        obs::counter("greedy_dag.fallbacks").add(1);
        FasterBottomUpExtractor fallback;
        ExtractionResult safe = fallback.extract(graph, options);
        safe.seconds += timer.seconds();
        safe.note = "greedy-dag union invalid (" + check.message +
                    "); fell back to heuristic+";
        return safe;
    }
    result.status = SolveStatus::Feasible;
    result.selection = std::move(rooted);
    result.cost = dagCost(graph, result.selection);
    return result;
}

/**
 * Remaps the previous epoch's cost sets into the new id space. Merged
 * classes keep the cheaper preimage set; choices that collapse onto the
 * same new class are resolved keep-first and the cached cost is
 * recomputed over the deduplicated set. The result may have gone stale
 * against new cheaper nodes — the dirty-frontier relaxation repairs it.
 */
std::vector<CostSet>
remapCostSets(const EGraph& graph, const eg::GraphDelta& delta,
              const std::vector<CostSet>& prev)
{
    std::vector<CostSet> best(graph.numClasses());
    for (ClassId p = 0; p < delta.prevNumClasses; ++p) {
        if (prev[p].cost == kInf)
            continue;
        CostSet mapped;
        mapped.choices.clear();
        for (const auto& [cls, choice] : prev[p].choices)
            mapped.choices.emplace(delta.classForward[cls],
                                   delta.nodeForward[choice]); // keep first
        mapped.cost = 0.0;
        for (const auto& [cls, choice] : mapped.choices)
            mapped.cost += graph.node(choice).cost;
        const ClassId c = delta.classForward[p];
        if (mapped.cost + 1e-12 < best[c].cost)
            best[c] = std::move(mapped);
    }
    return best;
}

} // namespace

ExtractionResult
GreedyDagExtractor::extractImpl(const EGraph& graph,
                            const ExtractOptions& options)
{
    util::Timer timer;
    util::Deadline deadline(options.timeLimitSeconds);
    obs::Span span("greedy_dag.extract", "extraction");

    std::vector<CostSet> best(graph.numClasses());
    std::deque<NodeId> queue;
    std::vector<bool> inQueue(graph.numNodes(), false);
    for (NodeId nid = 0; nid < graph.numNodes(); ++nid) {
        if (graph.node(nid).children.empty()) {
            queue.push_back(nid);
            inQueue[nid] = true;
        }
    }
    relaxCostSets(graph, best, queue, inQueue, deadline);
    return finishFromCostSets(graph, best, timer, options);
}

ExtractionResult
GreedyDagExtractor::extractIncrementalImpl(const EGraph& graph,
                                           const eg::GraphDelta& delta,
                                           IncrementalState& state,
                                           const ExtractOptions& options)
{
    util::Timer timer;
    util::Deadline deadline(options.timeLimitSeconds);
    obs::Span span("greedy_dag.extract", "extraction");

    const auto* prev = blobOf<CarriedCostSets>(state);
    std::vector<CostSet> best;
    std::deque<NodeId> queue;
    std::vector<bool> inQueue(graph.numNodes(), false);
    if (prev) {
        best = remapCostSets(graph, delta, prev->best);
        for (ClassId c : delta.dirtyClasses) {
            for (NodeId nid : graph.nodesInClass(c)) {
                if (!inQueue[nid]) {
                    queue.push_back(nid);
                    inQueue[nid] = true;
                }
            }
            for (NodeId parent : graph.parents(c)) {
                if (!inQueue[parent]) {
                    queue.push_back(parent);
                    inQueue[parent] = true;
                }
            }
        }
    } else {
        best.assign(graph.numClasses(), CostSet{});
        for (NodeId nid = 0; nid < graph.numNodes(); ++nid) {
            if (graph.node(nid).children.empty()) {
                queue.push_back(nid);
                inQueue[nid] = true;
            }
        }
    }
    relaxCostSets(graph, best, queue, inQueue, deadline);
    ExtractionResult result = finishFromCostSets(graph, best, timer, options);
    storeBlob<CarriedCostSets>(state).best = std::move(best);
    return result;
}

} // namespace smoothe::extract
