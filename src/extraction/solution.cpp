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

NodeIndicator
Selection::toNodeIndicator(const eg::EGraph& graph) const
{
    NodeIndicator s(graph.numNodes());
    s.assign(*this);
    return s;
}

void
NodeIndicator::assign(const Selection& sel)
{
    std::fill(words.begin(), words.end(), 0);
    for (const NodeId nid : sel.choice) {
        if (nid != kNoNode)
            set(nid);
    }
}

ValidationResult
validate(const EGraph& graph, const Selection& sel)
{
    return validate(graph, sel, CyclicSccs::of(graph));
}

namespace {

/** validate()'s working arrays, kept per thread and reused across
 *  calls, so a call allocates nothing once they fit the graph. */
struct ValidateScratch
{
    struct Frame
    {
        ClassId cls;
        std::uint32_t childIdx;
    };
    enum Color : unsigned char { White, Gray, Black };

    std::vector<std::uint8_t> needed;
    std::vector<ClassId> worklist;
    std::vector<std::uint8_t> color;
    std::vector<Frame> stack;
};

thread_local ValidateScratch validateScratch;

} // namespace

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

    const std::size_t m = graph.numClasses();
    if (sel.choice.size() != m)
        return fail(Violation::DanglingNode, "selection size mismatch");

    // Membership consistency, counting the chosen classes.
    std::size_t chosen = 0;
    for (ClassId cls = 0; cls < m; ++cls) {
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode)
            continue;
        if (nid >= graph.numNodes() || graph.classOf(nid) != cls) {
            std::ostringstream oss;
            oss << "choice for class " << cls
                << " is not a member of that class";
            return fail(Violation::DanglingNode, oss.str());
        }
        ++chosen;
    }

    // Constraint (a).
    if (!sel.chosen(graph.root()))
        return fail(Violation::RootUnchosen, "root e-class has no choice");

    // Constraint (b) + reachability, via DFS from the root.
    ValidateScratch& scratch = validateScratch;
    std::vector<std::uint8_t>& needed = scratch.needed;
    std::vector<ClassId>& worklist = scratch.worklist;
    needed.assign(m, 0);
    worklist.assign(1, graph.root());
    needed[graph.root()] = 1;
    std::size_t neededCount = 1;
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        const NodeId nid = sel.choice[cls];
        if (nid == kNoNode) {
            std::ostringstream oss;
            oss << "needed class " << cls << " has no chosen e-node";
            return fail(Violation::MissingChild, oss.str());
        }
        for (ClassId child : graph.children(nid)) {
            if (!needed[child]) {
                needed[child] = 1;
                ++neededCount;
                worklist.push_back(child);
            }
        }
    }

    // Every needed class is chosen by now, so the counts differ exactly
    // when some chosen class is not needed.
    if (neededCount != chosen) {
        for (ClassId cls = 0; cls < m; ++cls) {
            if (sel.chosen(cls) && !needed[cls]) {
                std::ostringstream oss;
                oss << "class " << cls
                    << " is chosen but not needed by the extraction";
                return fail(Violation::UnreachableChoice, oss.str());
            }
        }
    }

    // Constraint (c): colored DFS inside each cyclic SCC. Every chosen
    // class is needed here, so each child of a chosen node is chosen.
    if (sccs.classes.empty())
        return result;
    using Color = ValidateScratch::Color;
    std::vector<std::uint8_t>& color = scratch.color;
    std::vector<ValidateScratch::Frame>& stack = scratch.stack;
    color.resize(m);
    for (const auto& scc : sccs.classes) {
        const std::uint32_t id = sccs.id[scc.front()];
        for (ClassId cls : scc)
            color[cls] = Color::White;
        for (ClassId start : scc) {
            if (!sel.chosen(start) || color[start] != Color::White)
                continue;
            color[start] = Color::Gray;
            stack.assign(1, {start, 0});
            while (!stack.empty()) {
                ValidateScratch::Frame& frame = stack.back();
                const auto children = graph.children(sel.choice[frame.cls]);
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
    const auto needed = neededClasses(graph, sel);
    if (!needed)
        return kInf;
    double total = 0.0;
    for (ClassId cls : *needed)
        total += graph.node(sel.choice[cls]).cost;
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
        const auto children = graph.children(sel.choice[frame.cls]);
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
        for (ClassId child : graph.children(sel.choice[cls])) {
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
        for (ClassId child : graph.children(nid)) {
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
        for (ClassId child : graph.children(nid)) {
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
        for (ClassId child : graph_.children(choice[cur])) {
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
