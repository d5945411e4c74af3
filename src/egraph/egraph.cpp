#include "egraph/egraph.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "check/contracts.hpp"

namespace smoothe::eg {

ClassId
EGraph::addClass()
{
    SMOOTHE_ASSERT(!finalized_, "addClass() after finalize()");
    classNodes_.emplace_back();
    return static_cast<ClassId>(classNodes_.size() - 1);
}

NodeId
EGraph::addNode(ClassId cls, ENode node)
{
    SMOOTHE_ASSERT(!finalized_, "addNode() after finalize()");
    SMOOTHE_CHECK(cls < classNodes_.size(),
                  "addNode: e-class %u does not exist (have %zu)", cls,
                  classNodes_.size());
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::move(node));
    nodeClass_.push_back(cls);
    classNodes_[cls].push_back(id);
    return id;
}

NodeId
EGraph::addNode(ClassId cls, std::string op, std::vector<ClassId> children,
                double cost)
{
    ENode node;
    node.op = std::move(op);
    node.children = std::move(children);
    node.cost = cost;
    return addNode(cls, std::move(node));
}

std::optional<std::string>
EGraph::finalize()
{
    if (finalized_)
        return std::nullopt;
    if (root_ == kNoClass)
        return "e-graph has no root e-class";
    if (root_ >= classNodes_.size())
        return "root e-class id out of range";
    for (std::size_t j = 0; j < classNodes_.size(); ++j) {
        if (classNodes_[j].empty()) {
            std::ostringstream oss;
            oss << "e-class " << j << " is empty";
            return oss.str();
        }
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        for (ClassId child : nodes_[i].children) {
            if (child >= classNodes_.size()) {
                std::ostringstream oss;
                oss << "e-node " << i << " references unknown e-class "
                    << child;
                return oss.str();
            }
        }
    }

    classParents_.assign(classNodes_.size(), {});
    std::size_t edges = 0;
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const auto& children = nodes_[i].children;
        edges += children.size();
        if (children.empty())
            ++leaves;
        // A node may reference the same child class twice (e.g. x * x);
        // record the parent once per distinct child class.
        std::vector<ClassId> distinct = children;
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (ClassId child : distinct)
            classParents_[child].push_back(static_cast<NodeId>(i));
    }

    stats_.numNodes = nodes_.size();
    stats_.numClasses = classNodes_.size();
    stats_.numEdges = edges;
    stats_.numLeaves = leaves;
    stats_.avgDegree =
        nodes_.empty() ? 0.0 : static_cast<double>(edges) / nodes_.size();
    stats_.density =
        nodes_.empty() || classNodes_.empty()
            ? 0.0
            : static_cast<double>(edges) /
                  (static_cast<double>(nodes_.size()) * classNodes_.size());
    stats_.maxClassSize = 0;
    for (const auto& members : classNodes_)
        stats_.maxClassSize = std::max(stats_.maxClassSize, members.size());

    finalized_ = true;
    SMOOTHE_DCHECK_OK(checkInvariants());
    return std::nullopt;
}

std::optional<std::string>
EGraph::checkInvariants() const
{
    auto problem = [](const auto&... parts) -> std::optional<std::string> {
        std::ostringstream oss;
        (oss << ... << parts);
        return oss.str();
    };

    // Primary storage sizes must agree.
    if (nodeClass_.size() != nodes_.size())
        return problem("nodeClass index has ", nodeClass_.size(),
                       " entries for ", nodes_.size(), " nodes");

    // Per-node: class in range, children in range, finite cost.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (nodeClass_[i] >= classNodes_.size())
            return problem("e-node ", i, " claims out-of-range e-class ",
                           nodeClass_[i]);
        for (ClassId child : nodes_[i].children) {
            if (child >= classNodes_.size())
                return problem("e-node ", i,
                               " references out-of-range e-class ", child);
        }
        if (!std::isfinite(nodes_[i].cost))
            return problem("e-node ", i, " has non-finite cost");
    }

    // Membership must be bijective: classNodes_ lists each node exactly
    // once, in the class the node claims.
    std::vector<std::size_t> listed(nodes_.size(), 0);
    for (std::size_t j = 0; j < classNodes_.size(); ++j) {
        for (NodeId nid : classNodes_[j]) {
            if (nid >= nodes_.size())
                return problem("e-class ", j,
                               " lists out-of-range e-node ", nid);
            if (nodeClass_[nid] != j)
                return problem("e-class ", j, " lists e-node ", nid,
                               " which claims e-class ", nodeClass_[nid]);
            ++listed[nid];
        }
    }
    for (std::size_t i = 0; i < listed.size(); ++i) {
        if (listed[i] != 1)
            return problem("e-node ", i, " listed ", listed[i],
                           " times across e-classes");
    }

    if (!finalized_)
        return std::nullopt; // derived indices not built yet

    if (root_ >= classNodes_.size())
        return problem("root e-class ", root_, " out of range");
    for (std::size_t j = 0; j < classNodes_.size(); ++j) {
        if (classNodes_[j].empty())
            return problem("e-class ", j, " is empty");
    }

    // Parent index must match a recomputation (one entry per distinct
    // child class, ascending node ids as built by finalize()).
    if (classParents_.size() != classNodes_.size())
        return problem("parent index has ", classParents_.size(),
                       " entries for ", classNodes_.size(), " classes");
    std::vector<std::vector<NodeId>> expectedParents(classNodes_.size());
    std::size_t edges = 0;
    std::size_t leaves = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const auto& children = nodes_[i].children;
        edges += children.size();
        if (children.empty())
            ++leaves;
        std::vector<ClassId> distinct = children;
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (ClassId child : distinct)
            expectedParents[child].push_back(static_cast<NodeId>(i));
    }
    for (std::size_t j = 0; j < classNodes_.size(); ++j) {
        if (classParents_[j] != expectedParents[j])
            return problem("parent index of e-class ", j,
                           " disagrees with recomputation");
    }

    // Cached statistics must match a recount.
    if (stats_.numNodes != nodes_.size() ||
        stats_.numClasses != classNodes_.size() ||
        stats_.numEdges != edges || stats_.numLeaves != leaves)
        return problem("cached stats disagree with recount (nodes ",
                       stats_.numNodes, "/", nodes_.size(), ", classes ",
                       stats_.numClasses, "/", classNodes_.size(),
                       ", edges ", stats_.numEdges, "/", edges, ", leaves ",
                       stats_.numLeaves, "/", leaves, ")");

    return std::nullopt;
}

const std::vector<NodeId>&
EGraph::parents(ClassId cls) const
{
    requireFinalized();
    return classParents_[cls];
}

const EGraphStats&
EGraph::stats() const
{
    requireFinalized();
    return stats_;
}

void
EGraph::requireFinalized() const
{
    if (!finalized_)
        throw std::logic_error("EGraph used before finalize()");
}

std::vector<std::vector<ClassId>>
EGraph::classSccs() const
{
    requireFinalized();
    const std::size_t m = numClasses();

    // The class dependency adjacency in CSR form: class j's children,
    // sorted and deduplicated, are items[offsets[j], offsets[j + 1]).
    std::vector<std::uint32_t> offsets(m + 1, 0);
    std::vector<ClassId> items;
    items.reserve(nodes_.size());
    for (std::size_t j = 0; j < m; ++j) {
        const auto begin = static_cast<std::ptrdiff_t>(offsets[j]);
        for (NodeId nid : classNodes_[j]) {
            for (ClassId child : nodes_[nid].children)
                items.push_back(child);
        }
        std::sort(items.begin() + begin, items.end());
        items.erase(std::unique(items.begin() + begin, items.end()),
                    items.end());
        offsets[j + 1] = static_cast<std::uint32_t>(items.size());
    }

    // Iterative Tarjan SCC.
    constexpr std::uint32_t unvisited = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> index(m, unvisited);
    std::vector<std::uint32_t> lowlink(m, 0);
    std::vector<bool> onStack(m, false);
    std::vector<ClassId> stack;
    std::vector<std::vector<ClassId>> sccs;
    std::uint32_t counter = 0;

    struct Frame
    {
        ClassId v;
        std::uint32_t next; ///< position of the next child in items
    };
    std::vector<Frame> callStack;

    for (ClassId start = 0; start < m; ++start) {
        if (index[start] != unvisited)
            continue;
        callStack.push_back({start, offsets[start]});
        while (!callStack.empty()) {
            Frame& frame = callStack.back();
            const ClassId v = frame.v;
            if (index[v] == unvisited) {
                index[v] = lowlink[v] = counter++;
                stack.push_back(v);
                onStack[v] = true;
            }
            bool descended = false;
            while (frame.next < offsets[v + 1]) {
                const ClassId w = items[frame.next++];
                if (index[w] == unvisited) {
                    callStack.push_back({w, offsets[w]});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    lowlink[v] = std::min(lowlink[v], index[w]);
            }
            if (descended)
                continue;
            if (lowlink[v] == index[v]) {
                std::vector<ClassId> component;
                while (true) {
                    const ClassId w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    component.push_back(w);
                    if (w == v)
                        break;
                }
                sccs.push_back(std::move(component));
            }
            callStack.pop_back();
            if (!callStack.empty()) {
                Frame& parent = callStack.back();
                lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
            }
        }
    }
    return sccs;
}

std::vector<ClassId>
EGraph::reachableClasses() const
{
    requireFinalized();
    std::vector<bool> seen(numClasses(), false);
    std::vector<ClassId> order;
    std::vector<ClassId> worklist{root_};
    seen[root_] = true;
    while (!worklist.empty()) {
        const ClassId cls = worklist.back();
        worklist.pop_back();
        order.push_back(cls);
        for (NodeId nid : classNodes_[cls]) {
            for (ClassId child : nodes_[nid].children) {
                if (!seen[child]) {
                    seen[child] = true;
                    worklist.push_back(child);
                }
            }
        }
    }
    return order;
}

} // namespace smoothe::eg
