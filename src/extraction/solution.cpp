#include "extraction/solution.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "check/contracts.hpp"

namespace smoothe::extract {

using eg::ClassId;
using eg::EGraph;
using eg::kNoNode;
using eg::NodeId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

std::vector<bool>
Selection::toNodeIndicator(const eg::EGraph& graph) const
{
    std::vector<bool> s(graph.numNodes(), false);
    for (ClassId cls = 0; cls < choice.size(); ++cls) {
        if (choice[cls] != kNoNode)
            s[choice[cls]] = true;
    }
    return s;
}

ValidationResult
validate(const EGraph& graph, const Selection& sel)
{
    return validate(graph, sel, CyclicSccs::of(graph));
}

ValidationResult
validate(const EGraph& graph, const Selection& sel, const CyclicSccs& sccs)
{
    SMOOTHE_CHECK(sccs.id.size() == graph.numClasses(),
                  "validate: cyclic-SCC table has %zu classes, graph %zu",
                  sccs.id.size(), graph.numClasses());
    ValidationResult result;
    auto fail = [&](Violation v, const std::string& message) {
        result.violation = v;
        result.message = message;
        return result;
    };

    if (sel.choice.size() != graph.numClasses())
        return fail(Violation::DanglingNode, "selection size mismatch");

    // Membership consistency.
    for (ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode)
            continue;
        if (nid >= graph.numNodes() || graph.classOf(nid) != cls) {
            std::ostringstream oss;
            oss << "choice for class " << cls
                << " is not a member of that class";
            return fail(Violation::DanglingNode, oss.str());
        }
    }

    // Constraint (a).
    if (!sel.chosen(graph.root()))
        return fail(Violation::RootUnchosen, "root e-class has no choice");

    // Constraint (b) + reachability, via BFS from the root.
    std::vector<bool> needed(graph.numClasses(), false);
    std::vector<ClassId> worklist{graph.root()};
    needed[graph.root()] = true;
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode) {
            std::ostringstream oss;
            oss << "needed class " << cls << " has no chosen e-node";
            return fail(Violation::MissingChild, oss.str());
        }
        for (ClassId child : graph.node(nid).children) {
            if (!needed[child]) {
                needed[child] = true;
                worklist.push_back(child);
            }
        }
    }

    for (ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        if (sel.chosen(cls) && !needed[cls]) {
            std::ostringstream oss;
            oss << "class " << cls
                << " is chosen but not needed by the extraction";
            return fail(Violation::UnreachableChoice, oss.str());
        }
    }

    // Constraint (c): colored DFS inside each cyclic SCC. Every chosen
    // class is needed here, so each child of a chosen node is chosen.
    enum class Color : unsigned char { White, Gray, Black };
    std::vector<Color> color(graph.numClasses(), Color::White);
    struct Frame
    {
        ClassId cls;
        std::size_t childIdx;
    };
    std::vector<Frame> stack;
    for (const auto& scc : sccs.classes) {
        const std::uint32_t id = sccs.id[scc.front()];
        for (ClassId start : scc) {
            if (!sel.chosen(start) || color[start] != Color::White)
                continue;
            color[start] = Color::Gray;
            stack.push_back({start, 0});
            while (!stack.empty()) {
                Frame& frame = stack.back();
                const auto& children =
                    graph.node(sel.choice[frame.cls]).children;
                if (frame.childIdx < children.size()) {
                    const ClassId child = children[frame.childIdx++];
                    if (sccs.id[child] != id)
                        continue;
                    if (color[child] == Color::Gray) {
                        std::ostringstream oss;
                        oss << "cycle through class " << child;
                        return fail(Violation::Cyclic, oss.str());
                    }
                    if (color[child] == Color::White) {
                        color[child] = Color::Gray;
                        stack.push_back({child, 0});
                    }
                } else {
                    color[frame.cls] = Color::Black;
                    stack.pop_back();
                }
            }
        }
    }

    return result;
}

double
dagCost(const EGraph& graph, const Selection& sel)
{
    if (!sel.chosen(graph.root()))
        return kInf;
    std::vector<bool> counted(graph.numClasses(), false);
    std::vector<ClassId> worklist{graph.root()};
    counted[graph.root()] = true;
    double total = 0.0;
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode)
            return kInf;
        total += graph.node(nid).cost;
        for (ClassId child : graph.node(nid).children) {
            if (!counted[child]) {
                counted[child] = true;
                worklist.push_back(child);
            }
        }
    }
    return total;
}

double
treeCost(const EGraph& graph, const Selection& sel)
{
    if (!sel.chosen(graph.root()))
        return kInf;

    // Memoized DFS; Gray on the stack means a cycle.
    enum class State : unsigned char { Unvisited, InProgress, Done };
    std::vector<State> state(graph.numClasses(), State::Unvisited);
    std::vector<double> memo(graph.numClasses(), 0.0);

    struct Frame
    {
        ClassId cls;
        std::size_t childIdx;
        double partial;
    };
    std::vector<Frame> stack;
    auto push = [&](ClassId cls) -> bool {
        if (sel.choice[cls] == kNoNode)
            return false;
        state[cls] = State::InProgress;
        stack.push_back({cls, 0, graph.node(sel.choice[cls]).cost});
        return true;
    };
    if (!push(graph.root()))
        return kInf;
    while (!stack.empty()) {
        Frame& frame = stack.back();
        const auto& children = graph.node(sel.choice[frame.cls]).children;
        if (frame.childIdx < children.size()) {
            const ClassId child = children[frame.childIdx++];
            switch (state[child]) {
              case State::Done:
                frame.partial += memo[child];
                break;
              case State::InProgress:
                return kInf; // cycle
              case State::Unvisited:
                if (!push(child))
                    return kInf;
                break;
            }
        } else {
            memo[frame.cls] = frame.partial;
            state[frame.cls] = State::Done;
            const double value = frame.partial;
            stack.pop_back();
            if (!stack.empty())
                stack.back().partial += value;
            else
                return value;
        }
    }
    return memo[graph.root()];
}

Selection
rootedSelection(const EGraph& graph, const std::vector<NodeId>& class_choice)
{
    Selection sel = Selection::empty(graph);
    if (class_choice[graph.root()] == kNoNode)
        return sel;
    sel.choice[graph.root()] = class_choice[graph.root()];
    std::vector<ClassId> worklist{graph.root()};
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        for (ClassId child : graph.node(sel.choice[cls]).children) {
            if (sel.choice[child] != kNoNode)
                continue;
            if (class_choice[child] == kNoNode)
                return Selection::empty(graph);
            sel.choice[child] = class_choice[child];
            worklist.push_back(child);
        }
    }
    return sel;
}

std::optional<std::vector<ClassId>>
neededClasses(const EGraph& graph, const Selection& sel)
{
    if (!sel.chosen(graph.root()))
        return std::nullopt;
    std::vector<bool> seen(graph.numClasses(), false);
    std::vector<ClassId> order;
    std::vector<ClassId> worklist{graph.root()};
    seen[graph.root()] = true;
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        order.push_back(cls);
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode)
            return std::nullopt;
        for (ClassId child : graph.node(nid).children) {
            if (!seen[child]) {
                seen[child] = true;
                worklist.push_back(child);
            }
        }
    }
    return order;
}

CyclicSccs
CyclicSccs::of(const EGraph& graph)
{
    const std::size_t m = graph.numClasses();
    std::vector<bool> selfLoop(m, false);
    for (NodeId nid = 0; nid < graph.numNodes(); ++nid) {
        for (ClassId child : graph.node(nid).children) {
            if (child == graph.classOf(nid))
                selfLoop[child] = true;
        }
    }
    CyclicSccs sccs;
    sccs.id.assign(m, kNone);
    for (auto& scc : graph.classSccs()) {
        if (scc.size() == 1 && !selfLoop[scc.front()])
            continue;
        for (ClassId cls : scc)
            sccs.id[cls] = static_cast<std::uint32_t>(sccs.classes.size());
        sccs.classes.push_back(std::move(scc));
    }
    return sccs;
}

bool
CycleCheck::closesCycle(const std::vector<NodeId>& choice, ClassId cls)
{
    const std::uint32_t scc = sccs_.id[cls];
    if (scc == CyclicSccs::kNone)
        return false;
    if (++epoch_ == 0) {
        // The stamp wrapped: clear it, once every 2^32 checks.
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
    }
    dfs_.assign(1, cls);
    while (!dfs_.empty()) {
        const ClassId cur = dfs_.back();
        dfs_.pop_back();
        for (ClassId child : graph_.node(choice[cur]).children) {
            if (child == cls)
                return true;
            if (sccs_.id[child] != scc || choice[child] == kNoNode ||
                stamp_[child] == epoch_)
                continue;
            stamp_[child] = epoch_;
            dfs_.push_back(child);
        }
    }
    return false;
}

} // namespace smoothe::extract
