#include "ilp/ilp_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <limits>

#include "check/contracts.hpp"
#include "extraction/bottom_up.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace smoothe::ilp {

using eg::ClassId;
using eg::EGraph;
using eg::kNoNode;
using eg::NodeId;
using extract::ExtractionResult;
using extract::ExtractOptions;
using extract::Selection;
using extract::SolveStatus;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

const char*
presetName(IlpPreset preset)
{
    switch (preset) {
      case IlpPreset::Strong: return "ILP-strong";
      case IlpPreset::Medium: return "ILP-medium";
      case IlpPreset::Weak: return "ILP-weak";
    }
    return "ILP";
}

LinearProgram
buildExtractionLp(const EGraph& graph)
{
    LinearProgram lp;
    const std::size_t n = graph.numNodes();
    const std::size_t m = graph.numClasses();

    // s variables (relaxed binaries).
    for (NodeId nid = 0; nid < n; ++nid)
        lp.addVariable(graph.node(nid).cost, 1.0);

    const bool cyclic = !extract::CyclicSccs::of(graph).classes.empty();
    // t variables (only useful on cyclic graphs, but harmless otherwise;
    // we add them only when needed to keep the simplex small).
    const std::size_t tBase = n;
    if (cyclic) {
        for (ClassId cls = 0; cls < m; ++cls)
            lp.addVariable(0.0, 1.0);
    }

    // (1b): exactly one root member.
    {
        Constraint c;
        for (NodeId nid : graph.nodesInClass(graph.root()))
            c.terms.emplace_back(nid, 1.0);
        c.sense = Sense::Equal;
        c.rhs = 1.0;
        lp.addConstraint(std::move(c));
    }

    // (1c): s_i <= sum over child class members.
    for (NodeId nid = 0; nid < n; ++nid) {
        // Deduplicate repeated child classes (e.g. x * x).
        const auto kids = graph.children(nid);
        std::vector<ClassId> children(kids.begin(), kids.end());
        std::sort(children.begin(), children.end());
        children.erase(std::unique(children.begin(), children.end()),
                       children.end());
        for (ClassId child : children) {
            Constraint c;
            c.terms.emplace_back(nid, 1.0);
            for (NodeId member : graph.nodesInClass(child))
                c.terms.emplace_back(member, -1.0);
            c.sense = Sense::LessEqual;
            c.rhs = 0.0;
            lp.addConstraint(std::move(c));
        }
    }

    // (1e): t_{ec(i)} - t_j - eps + A * (1 - s_i) >= 0.
    if (cyclic) {
        const double eps = 1.0 / (static_cast<double>(m) + 1.0);
        const double bigA = 1.0 + 2.0 * eps;
        for (NodeId nid = 0; nid < n; ++nid) {
            const ClassId owner = graph.classOf(nid);
            const auto kids = graph.children(nid);
            std::vector<ClassId> children(kids.begin(), kids.end());
            std::sort(children.begin(), children.end());
            children.erase(std::unique(children.begin(), children.end()),
                           children.end());
            for (ClassId child : children) {
                Constraint c;
                c.terms.emplace_back(tBase + owner, 1.0);
                if (child != owner)
                    c.terms.emplace_back(tBase + child, -1.0);
                else
                    continue; // self-loop: s_i can simply never be 1; the
                              // search handles it via cycle detection
                c.terms.emplace_back(nid, -bigA);
                c.sense = Sense::GreaterEqual;
                c.rhs = eps - bigA;
                lp.addConstraint(std::move(c));
            }
        }
    }
    return lp;
}

namespace {

/**
 * Class-choice branch-and-bound. See the header for the scheme.
 */
class BnBSearch
{
  public:
    BnBSearch(const EGraph& graph, IlpPreset preset,
              const ExtractOptions& options)
        : graph_(graph), preset_(preset), options_(options),
          deadline_(options.timeLimitSeconds),
          cyclicSccs_(extract::CyclicSccs::of(graph)),
          cycleCheck_(graph, cyclicSccs_)
    {
        const std::size_t n = graph.numNodes();
        const std::size_t m = graph.numClasses();

        // Feasibility: a node is usable iff all child classes have some
        // usable node (bottom-up liveness).
        nodeFeasible_.assign(n, false);
        classFeasible_.assign(m, false);
        std::vector<std::size_t> pending(n, 0);
        std::vector<NodeId> queue;
        for (NodeId nid = 0; nid < n; ++nid) {
            const auto kids = graph.children(nid);
            std::vector<ClassId> distinct(kids.begin(), kids.end());
            std::sort(distinct.begin(), distinct.end());
            distinct.erase(
                std::unique(distinct.begin(), distinct.end()),
                distinct.end());
            pending[nid] = distinct.size();
            if (distinct.empty())
                queue.push_back(nid);
        }
        while (!queue.empty()) {
            const NodeId nid = queue.back();
            queue.pop_back();
            if (nodeFeasible_[nid])
                continue;
            nodeFeasible_[nid] = true;
            const ClassId cls = graph.classOf(nid);
            if (classFeasible_[cls])
                continue;
            classFeasible_[cls] = true;
            for (NodeId parent : graph.parents(cls)) {
                if (!nodeFeasible_[parent] && --pending[parent] == 0)
                    queue.push_back(parent);
            }
        }

        // Per-class minimum feasible member cost (admissible lookahead).
        minCost_.assign(m, kInf);
        for (ClassId cls = 0; cls < m; ++cls) {
            for (NodeId nid : graph.nodesInClass(cls)) {
                if (nodeFeasible_[nid])
                    minCost_[cls] =
                        std::min(minCost_[cls], graph.node(nid).cost);
            }
        }

        // Parent-node counts for the cost-splitting bound.
        parentCount_.assign(m, 0);
        for (ClassId cls = 0; cls < m; ++cls)
            parentCount_[cls] = graph.parents(cls).size();

        // Branch member ordering per class.
        memberOrder_.resize(m);
        for (ClassId cls = 0; cls < m; ++cls) {
            auto& order = memberOrder_[cls];
            for (NodeId nid : graph.nodesInClass(cls)) {
                if (nodeFeasible_[nid])
                    order.push_back(nid);
            }
            if (preset_ != IlpPreset::Weak) {
                // Guided: cheapest (node cost + children lookahead) first.
                std::sort(order.begin(), order.end(),
                          [&](NodeId a, NodeId b) {
                              return guidedScore(a) < guidedScore(b);
                          });
            }
        }

        decision_.assign(m, kNoNode);
        neededCount_.assign(m, 0);
    }

    ExtractionResult
    run()
    {
        ExtractionResult result;
        if (!classFeasible_[graph_.root()]) {
            result.status = SolveStatus::Infeasible;
            result.cost = kInf;
            result.seconds = timer_.seconds();
            return result;
        }

        // Warm start (Strong): seed the incumbent with heuristic+.
        if (preset_ == IlpPreset::Strong) {
            extract::FasterBottomUpExtractor heuristic;
            auto warm = heuristic.extract(graph_, {});
            if (warm.ok()) {
                incumbent_ = warm.selection;
                incumbentCost_ = warm.cost;
                trace_.push_back({timer_.seconds(), incumbentCost_});
            }
        }

        // Root becomes needed; DFS.
        neededCount_[graph_.root()] = 1;
        open_.push_back(graph_.root());
        complete_ = true;
        {
            obs::Span span("bnb_search", "ilp");
            search();
        }
        // One add after the run, not per node: search() is far too hot.
        obs::counter("ilp.bnb_nodes").add(nodesExplored_);

        result.seconds = timer_.seconds();
        result.trace = std::move(trace_);
        if (incumbentCost_ == kInf) {
            result.status = complete_ ? SolveStatus::Infeasible
                                      : SolveStatus::Failed;
            result.cost = kInf;
            return result;
        }
        result.selection = incumbent_;
        result.cost = incumbentCost_;
        result.status =
            complete_ ? SolveStatus::Optimal : SolveStatus::Feasible;
        return result;
    }

  private:
    double
    guidedScore(NodeId nid) const
    {
        double score = graph_.node(nid).cost;
        for (ClassId child : graph_.node(nid).children) {
            if (minCost_[child] != kInf)
                score += minCost_[child];
        }
        return score;
    }

    /**
     * Cost-splitting claims of a node: for each distinct *fresh* child
     * class (undecided, not yet needed) add minCost / parentNodeCount.
     * Dividing each class's minimum cost among its parent e-nodes keeps
     * the sum of claims over any valid completion <= the completion's
     * true cost, so bounds built from these claims are admissible. On
     * set-cover reductions this recovers the classic
     * sum_e min_s w(s)/|s| lower bound that makes the adversarial
     * instances easy for ILP (Table 4).
     */
    double
    splitClaims(NodeId nid) const
    {
        double claims = 0.0;
        const auto& children = graph_.node(nid).children;
        for (std::size_t i = 0; i < children.size(); ++i) {
            const ClassId child = children[i];
            bool duplicate = false;
            for (std::size_t j = 0; j < i; ++j)
                duplicate = duplicate || children[j] == child;
            if (duplicate)
                continue;
            if (decision_[child] != kNoNode || neededCount_[child] != 0)
                continue; // already paid or separately bounded
            if (minCost_[child] == kInf || parentCount_[child] == 0)
                continue;
            claims += minCost_[child] /
                      static_cast<double>(parentCount_[child]);
        }
        return claims;
    }

    /** Per-open-class lower bound: min over members of cost + claims. */
    double
    refinedClassBound(ClassId cls) const
    {
        double best = kInf;
        for (NodeId nid : memberOrder_[cls]) {
            const double value = graph_.node(nid).cost + splitClaims(nid);
            best = std::min(best, value);
        }
        return best == kInf ? 0.0 : best;
    }

    void
    search()
    {
        if (deadline_.expired() || nodesExplored_ > kNodeCap) {
            complete_ = false;
            return;
        }
        ++nodesExplored_;

        if (open_.empty()) {
            // All needed classes decided: candidate solution.
            if (costSoFar_ < incumbentCost_) {
                incumbentCost_ = costSoFar_;
                incumbent_ = Selection::empty(graph_);
                incumbent_.choice = decision_;
                // Clear decisions for classes with neededCount 0 (none by
                // construction, decisions map only needed classes).
                trace_.push_back({timer_.seconds(), incumbentCost_});
            }
            return;
        }

        // Pick the most recently needed open class (stack order keeps the
        // search localized).
        const ClassId cls = open_.back();
        open_.pop_back();

        // Cost-splitting bound over the remaining open classes (see
        // splitClaims); Weak skips it, emulating a bound-less solver.
        double openBound = 0.0;
        if (preset_ != IlpPreset::Weak) {
            for (ClassId openCls : open_)
                openBound += refinedClassBound(openCls);
        }

        // Dynamic member ordering (Strong/Medium): try the member with
        // the smallest *marginal* cost first — children already decided
        // (e.g. an already-bought set in a cover instance) are free, so
        // reuse-heavy branches are explored before paying for new
        // subtrees. This is what makes the CSE-rich adversarial
        // reductions tractable.
        std::vector<NodeId> order = memberOrder_[cls];
        if (preset_ != IlpPreset::Weak) {
            std::vector<double> marginal(order.size());
            for (std::size_t i = 0; i < order.size(); ++i) {
                double score = graph_.node(order[i]).cost;
                for (ClassId child : graph_.node(order[i]).children) {
                    if (decision_[child] == kNoNode &&
                        neededCount_[child] == 0 &&
                        minCost_[child] != kInf)
                        score += minCost_[child];
                }
                marginal[i] = score;
            }
            std::vector<std::size_t> perm(order.size());
            for (std::size_t i = 0; i < perm.size(); ++i)
                perm[i] = i;
            std::sort(perm.begin(), perm.end(),
                      [&](std::size_t a, std::size_t b) {
                          return marginal[a] < marginal[b];
                      });
            std::vector<NodeId> sorted(order.size());
            for (std::size_t i = 0; i < perm.size(); ++i)
                sorted[i] = order[perm[i]];
            order = std::move(sorted);
        }

        for (NodeId nid : order) {
            const double nodeCost = graph_.node(nid).cost;

            // Bound: decided cost + this node + its fresh-child claims +
            // the refined bound on every other open class.
            const double bound =
                preset_ == IlpPreset::Weak
                    ? costSoFar_ + nodeCost
                    : costSoFar_ + nodeCost + splitClaims(nid) + openBound;
            if (bound >= incumbentCost_)
                continue;

            // Apply.
            decision_[cls] = nid;
            if (cycleCheck_.closesCycle(decision_, cls)) {
                decision_[cls] = kNoNode;
                continue;
            }
            costSoFar_ += nodeCost;
            std::vector<ClassId> newlyOpened;
            for (ClassId child : graph_.node(nid).children) {
                if (++neededCount_[child] == 1 &&
                    decision_[child] == kNoNode) {
                    open_.push_back(child);
                    newlyOpened.push_back(child);
                }
            }

            search();

            // Undo.
            for (auto it = newlyOpened.rbegin(); it != newlyOpened.rend();
                 ++it) {
                SMOOTHE_DCHECK(!open_.empty() && open_.back() == *it,
                               "branch bookkeeping out of sync");
                open_.pop_back();
            }
            for (ClassId child : graph_.node(nid).children)
                --neededCount_[child];
            costSoFar_ -= nodeCost;
            decision_[cls] = kNoNode;

            if (deadline_.expired() || nodesExplored_ > kNodeCap) {
                complete_ = false;
                break;
            }
        }
        open_.push_back(cls);
    }

    static constexpr std::size_t kNodeCap = 200000000;

    const EGraph& graph_;
    IlpPreset preset_;
    ExtractOptions options_;
    util::Timer timer_;
    util::Deadline deadline_;
    extract::CyclicSccs cyclicSccs_;
    extract::CycleCheck cycleCheck_;

    std::vector<bool> nodeFeasible_;
    std::vector<bool> classFeasible_;
    std::vector<double> minCost_;
    std::vector<std::size_t> parentCount_;
    std::vector<std::vector<NodeId>> memberOrder_;

    std::vector<NodeId> decision_;
    std::vector<std::uint32_t> neededCount_;
    std::vector<ClassId> open_;
    double costSoFar_ = 0.0;

    Selection incumbent_;
    double incumbentCost_ = kInf;
    std::vector<extract::AnytimePoint> trace_;
    bool complete_ = true;
    std::size_t nodesExplored_ = 0;
};

/**
 * LP-based branch-and-bound: solves the relaxation with the simplex and
 * branches on the most fractional s variable (classic MILP scheme, what
 * commercial solvers do modulo cuts). Only viable for models the dense
 * tableau can handle, so the caller gates it by size; it is decisive on
 * the adversarial NP-hard reductions where the LP bound is near-tight
 * and the combinatorial bound is not (Table 4).
 */
class LpBnB
{
  public:
    LpBnB(const EGraph& graph, const ExtractOptions& options,
          LinearProgram base)
        : graph_(graph), options_(options),
          deadline_(options.timeLimitSeconds), base_(std::move(base)),
          cyclicSccs_(extract::CyclicSccs::of(graph))
    {}

    ExtractionResult
    run()
    {
        ExtractionResult result;

        // Warm incumbent so the very first bound can prune.
        extract::FasterBottomUpExtractor heuristic;
        auto warm = heuristic.extract(graph_, {});
        if (warm.ok()) {
            incumbent_ = warm.selection;
            incumbentCost_ = warm.cost;
            trace_.push_back({timer_.seconds(), incumbentCost_});
        }

        struct Node
        {
            std::vector<std::pair<std::size_t, int>> fixings;
            double bound;
        };
        // Best-first by LP bound.
        auto compare = [](const Node& a, const Node& b) {
            return a.bound > b.bound;
        };
        std::priority_queue<Node, std::vector<Node>, decltype(compare)>
            frontier(compare);
        frontier.push({{}, 0.0});

        bool complete = true;
        std::size_t solved = 0;
        while (!frontier.empty()) {
            if (deadline_.expired() || solved > kNodeCap) {
                complete = false;
                break;
            }
            Node node = frontier.top();
            frontier.pop();
            if (node.bound >= incumbentCost_ - 1e-9)
                continue; // bound computed at push time still valid

            const LpResult relaxed = solveNode(node.fixings);
            ++solved;
            if (relaxed.status == LpStatus::Infeasible)
                continue;
            if (relaxed.status != LpStatus::Optimal) {
                complete = false; // iteration limit: treat as unknown
                continue;
            }
            if (relaxed.objective >= incumbentCost_ - 1e-9)
                continue;

            // Most fractional s variable.
            std::size_t branchVar = graph_.numNodes();
            double worst = 1e-6;
            for (std::size_t i = 0; i < graph_.numNodes(); ++i) {
                const double value = relaxed.values[i];
                const double fractional =
                    std::min(value, 1.0 - value);
                if (fractional > worst) {
                    worst = fractional;
                    branchVar = i;
                }
            }
            if (branchVar == graph_.numNodes()) {
                // Integral: candidate solution.
                Selection sel = roundedSelection(relaxed.values);
                if (sel.chosen(graph_.root()) &&
                    extract::validate(graph_, sel, cyclicSccs_).ok()) {
                    const double cost = extract::dagCost(graph_, sel);
                    if (cost < incumbentCost_) {
                        incumbentCost_ = cost;
                        incumbent_ = std::move(sel);
                        trace_.push_back({timer_.seconds(),
                                          incumbentCost_});
                    }
                }
                continue;
            }
            for (int value : {1, 0}) {
                Node child;
                child.fixings = node.fixings;
                child.fixings.emplace_back(branchVar, value);
                child.bound = relaxed.objective;
                frontier.push(std::move(child));
            }
        }

        obs::counter("ilp.bnb_nodes").add(solved);

        result.seconds = timer_.seconds();
        result.trace = std::move(trace_);
        if (incumbentCost_ == kInf) {
            result.status =
                complete ? SolveStatus::Infeasible : SolveStatus::Failed;
            result.cost = kInf;
            return result;
        }
        result.selection = incumbent_;
        result.cost = incumbentCost_;
        result.status =
            complete ? SolveStatus::Optimal : SolveStatus::Feasible;
        return result;
    }

  private:
    static constexpr std::size_t kNodeCap = 20000;

    LpResult
    solveNode(const std::vector<std::pair<std::size_t, int>>& fixings)
    {
        LinearProgram lp = base_;
        for (const auto& [var, value] : fixings) {
            if (value == 0) {
                lp.setUpperBound(var, 0.0);
            } else {
                Constraint atLeastOne;
                atLeastOne.terms.emplace_back(var, 1.0);
                atLeastOne.sense = Sense::GreaterEqual;
                atLeastOne.rhs = 1.0;
                lp.addConstraint(std::move(atLeastOne));
            }
        }
        SimplexOptions simplexOptions;
        simplexOptions.maxIterations = 20000;
        simplexOptions.timeLimitSeconds = deadline_.remaining();
        return solveSimplex(lp, simplexOptions);
    }

    Selection
    roundedSelection(const std::vector<double>& values) const
    {
        // Chosen nodes are the s variables at 1; walk from the root and
        // keep only needed classes (ties broken by first chosen member).
        std::vector<NodeId> chosenPerClass(graph_.numClasses(), kNoNode);
        for (NodeId nid = 0; nid < graph_.numNodes(); ++nid) {
            if (values[nid] > 0.5 &&
                chosenPerClass[graph_.classOf(nid)] == kNoNode)
                chosenPerClass[graph_.classOf(nid)] = nid;
        }
        return extract::rootedSelection(graph_, chosenPerClass);
    }

    const EGraph& graph_;
    ExtractOptions options_;
    util::Timer timer_;
    util::Deadline deadline_;
    LinearProgram base_;
    extract::CyclicSccs cyclicSccs_;

    Selection incumbent_;
    double incumbentCost_ = kInf;
    std::vector<extract::AnytimePoint> trace_;
};

} // namespace

ExtractionResult
IlpExtractor::extractImpl(const EGraph& graph,
                          const ExtractOptions& options)
{
    // Small models: real LP-based branch-and-bound (Strong and Medium
    // presets; Medium gets a lower size cap, mimicking open-source
    // solvers giving up earlier). The dense tableau costs
    // O(rows^2 * cols) per solve, so the gate looks at the actual LP
    // dimensions, not just the graph size. Everything else: the
    // combinatorial class-choice search.
    obs::Span extractSpan("ilp.extract", "ilp");
    if (preset_ != IlpPreset::Weak) {
        const double capScale = preset_ == IlpPreset::Strong ? 1.0 : 0.5;
        const LinearProgram lp = buildExtractionLp(graph);
        if (lp.numVariables() <=
                static_cast<std::size_t>(1100 * capScale) &&
            lp.numConstraints() <=
                static_cast<std::size_t>(1300 * capScale)) {
            LpBnB solver(graph, options, lp);
            ExtractionResult result = solver.run();
            if (result.ok() || result.status == SolveStatus::Infeasible) {
                obs::counter("ilp.engine.lp_bnb").add(1);
                return result;
            }
            // fall through to the combinatorial search on failure
            obs::counter("ilp.engine.lp_bnb_fallback").add(1);
        } else {
            obs::counter("ilp.engine.lp_too_large").add(1);
        }
    }

    BnBSearch search(graph, preset_, options);
    ExtractionResult result = search.run();
    if (result.ok()) {
        // The search stores raw decisions; keep the needed classes only.
        result.selection =
            extract::rootedSelection(graph, result.selection.choice);
        result.cost = extract::dagCost(graph, result.selection);
    }
    return result;
}

} // namespace smoothe::ilp
