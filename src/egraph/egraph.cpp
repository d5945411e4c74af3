#include "egraph/egraph.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "check/contracts.hpp"

namespace smoothe::eg {

ClassId
EGraph::addClass()
{
    SMOOTHE_ASSERT(!finalized_, "addClass() after finalize()");
    return static_cast<ClassId>(numClasses_++);
}

NodeId
EGraph::addNode(ClassId cls, std::string op,
                const std::vector<ClassId>& children, double cost)
{
    SMOOTHE_ASSERT(!finalized_, "addNode() after finalize()");
    SMOOTHE_CHECK(cls < numClasses_,
                  "addNode: e-class %u does not exist (have %zu)", cls,
                  numClasses_);
    const NodeId id = static_cast<NodeId>(nodeClass_.size());
    ops_.push_back(std::move(op));
    costs_.push_back(cost);
    nodeClass_.push_back(cls);
    childItems_.insert(childItems_.end(), children.begin(), children.end());
    childOffsets_.push_back(static_cast<std::uint32_t>(childItems_.size()));
    return id;
}

std::optional<std::string>
EGraph::finalize()
{
    if (finalized_)
        return std::nullopt;
    if (root_ == kNoClass)
        return "e-graph has no root e-class";
    if (root_ >= numClasses_)
        return "root e-class id out of range";

    // Class members by a counting sort on nodeClass_: ascending node ids
    // within each class, the order the nodes were added in.
    const std::size_t n = numNodes();
    memberOffsets_.assign(numClasses_ + 1, 0);
    for (ClassId cls : nodeClass_)
        ++memberOffsets_[cls + 1];
    for (std::size_t j = 0; j < numClasses_; ++j)
        memberOffsets_[j + 1] += memberOffsets_[j];
    memberItems_.resize(n);
    {
        std::vector<std::uint32_t> next(memberOffsets_.begin(),
                                        memberOffsets_.end() - 1);
        for (NodeId i = 0; i < n; ++i)
            memberItems_[next[nodeClass_[i]]++] = i;
    }

    for (std::size_t j = 0; j < numClasses_; ++j) {
        if (memberOffsets_[j] == memberOffsets_[j + 1]) {
            std::ostringstream oss;
            oss << "e-class " << j << " is empty";
            return oss.str();
        }
    }
    for (NodeId i = 0; i < n; ++i) {
        for (ClassId child : children(i)) {
            if (child >= numClasses_) {
                std::ostringstream oss;
                oss << "e-node " << i << " references unknown e-class "
                    << child;
                return oss.str();
            }
        }
    }

    classParents_ = parentIndex();
    std::size_t leaves = 0;
    for (NodeId i = 0; i < n; ++i)
        leaves += children(i).empty();

    const std::size_t edges = childItems_.size();
    stats_.numNodes = n;
    stats_.numClasses = numClasses_;
    stats_.numEdges = edges;
    stats_.numLeaves = leaves;
    stats_.avgDegree = n == 0 ? 0.0 : static_cast<double>(edges) / n;
    stats_.density =
        n == 0 || numClasses_ == 0
            ? 0.0
            : static_cast<double>(edges) /
                  (static_cast<double>(n) * numClasses_);
    stats_.maxClassSize = 0;
    for (std::size_t j = 0; j < numClasses_; ++j)
        stats_.maxClassSize =
            std::max<std::size_t>(stats_.maxClassSize,
                                  memberOffsets_[j + 1] - memberOffsets_[j]);

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
    const std::size_t n = nodeClass_.size();
    if (ops_.size() != n || costs_.size() != n)
        return problem("node storage has ", ops_.size(), " ops and ",
                       costs_.size(), " costs for ", n, " nodes");
    if (childOffsets_.size() != n + 1 || childOffsets_.front() != 0 ||
        childOffsets_.back() != childItems_.size() ||
        !std::is_sorted(childOffsets_.begin(), childOffsets_.end()))
        return problem("child offsets do not partition the ",
                       childItems_.size(), " child entries of ", n,
                       " nodes");

    // Per-node: class in range, children in range, finite cost.
    for (NodeId i = 0; i < n; ++i) {
        if (nodeClass_[i] >= numClasses_)
            return problem("e-node ", i, " claims out-of-range e-class ",
                           nodeClass_[i]);
        for (ClassId child : children(i)) {
            if (child >= numClasses_)
                return problem("e-node ", i,
                               " references out-of-range e-class ", child);
        }
        if (!std::isfinite(costs_[i]))
            return problem("e-node ", i, " has non-finite cost");
    }

    if (!finalized_)
        return std::nullopt; // derived indices not built yet

    if (root_ >= numClasses_)
        return problem("root e-class ", root_, " out of range");

    // Membership must be bijective: the member index lists each node
    // exactly once, in the class the node claims.
    if (memberOffsets_.size() != numClasses_ + 1 ||
        memberOffsets_.front() != 0 ||
        memberOffsets_.back() != memberItems_.size() ||
        !std::is_sorted(memberOffsets_.begin(), memberOffsets_.end()))
        return problem("member offsets do not partition the ",
                       memberItems_.size(), " member entries of ",
                       numClasses_, " classes");
    std::vector<std::size_t> listed(n, 0);
    for (ClassId j = 0; j < numClasses_; ++j) {
        if (nodesInClass(j).empty())
            return problem("e-class ", j, " is empty");
        for (NodeId nid : nodesInClass(j)) {
            if (nid >= n)
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

    // Parent index must match a recomputation (one entry per distinct
    // child class, ascending node ids as built by finalize()).
    if (classParents_.size() != numClasses_)
        return problem("parent index has ", classParents_.size(),
                       " entries for ", numClasses_, " classes");
    const std::vector<std::vector<NodeId>> expectedParents = parentIndex();
    for (std::size_t j = 0; j < numClasses_; ++j) {
        if (classParents_[j] != expectedParents[j])
            return problem("parent index of e-class ", j,
                           " disagrees with recomputation");
    }

    // Cached statistics must match a recount.
    std::size_t leaves = 0;
    for (NodeId i = 0; i < n; ++i)
        leaves += children(i).empty();
    const std::size_t edges = childItems_.size();
    if (stats_.numNodes != n || stats_.numClasses != numClasses_ ||
        stats_.numEdges != edges || stats_.numLeaves != leaves)
        return problem("cached stats disagree with recount (nodes ",
                       stats_.numNodes, "/", n, ", classes ",
                       stats_.numClasses, "/", numClasses_, ", edges ",
                       stats_.numEdges, "/", edges, ", leaves ",
                       stats_.numLeaves, "/", leaves, ")");

    return std::nullopt;
}

std::vector<std::vector<NodeId>>
EGraph::parentIndex() const
{
    std::vector<std::vector<NodeId>> parents(numClasses_);
    std::vector<ClassId> distinct;
    for (NodeId i = 0; i < numNodes(); ++i) {
        // A node may reference the same child class twice (e.g. x * x);
        // record the parent once per distinct child class.
        const auto kids = children(i);
        distinct.assign(kids.begin(), kids.end());
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (ClassId child : distinct)
            parents[child].push_back(i);
    }
    return parents;
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
    items.reserve(childItems_.size());
    for (std::size_t j = 0; j < m; ++j) {
        const auto begin = static_cast<std::ptrdiff_t>(offsets[j]);
        for (NodeId nid : nodesInClass(static_cast<ClassId>(j))) {
            for (ClassId child : children(nid))
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
        for (NodeId nid : nodesInClass(cls)) {
            for (ClassId child : children(nid)) {
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
