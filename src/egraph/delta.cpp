#include "egraph/delta.hpp"

#include <sstream>

namespace smoothe::eg {

bool
GraphDelta::isIdentity() const
{
    if (nodeForward.size() != prevNumNodes ||
        classForward.size() != prevNumClasses)
        return false;
    for (NodeId n = 0; n < nodeForward.size(); ++n) {
        if (nodeForward[n] != n)
            return false;
    }
    for (ClassId c = 0; c < classForward.size(); ++c) {
        if (classForward[c] != c)
            return false;
    }
    return prevNode.size() == prevNumNodes &&
           prevClasses.size() == prevNumClasses;
}

GraphDelta
GraphDelta::identity(const EGraph& graph)
{
    GraphDelta delta;
    delta.prevNumNodes = graph.numNodes();
    delta.prevNumClasses = graph.numClasses();
    delta.nodeForward.resize(delta.prevNumNodes);
    for (NodeId n = 0; n < delta.prevNumNodes; ++n)
        delta.nodeForward[n] = n;
    delta.classForward.resize(delta.prevNumClasses);
    for (ClassId c = 0; c < delta.prevNumClasses; ++c)
        delta.classForward[c] = c;
    delta.deriveReverseMaps(delta.prevNumNodes, delta.prevNumClasses);
    return delta;
}

void
GraphDelta::deriveReverseMaps(std::size_t next_nodes,
                              std::size_t next_classes)
{
    prevNode.assign(next_nodes, kNoNode);
    for (NodeId p = 0; p < nodeForward.size(); ++p) {
        const NodeId n = nodeForward[p];
        if (prevNode[n] == kNoNode)
            prevNode[n] = p;
    }
    prevClasses.assign(next_classes, {});
    for (ClassId p = 0; p < classForward.size(); ++p)
        prevClasses[classForward[p]].push_back(p);
}

std::optional<std::string>
GraphDelta::checkConsistent(const EGraph& next) const
{
    const auto problem = [](auto&&... parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        return std::optional<std::string>(oss.str());
    };

    if (nodeForward.size() != prevNumNodes)
        return problem("nodeForward has ", nodeForward.size(),
                       " entries for ", prevNumNodes, " prev nodes");
    if (classForward.size() != prevNumClasses)
        return problem("classForward has ", classForward.size(),
                       " entries for ", prevNumClasses, " prev classes");
    if (prevNode.size() != next.numNodes())
        return problem("prevNode has ", prevNode.size(), " entries for ",
                       next.numNodes(), " next nodes");
    if (prevClasses.size() != next.numClasses())
        return problem("prevClasses has ", prevClasses.size(),
                       " entries for ", next.numClasses(), " next classes");

    for (NodeId p = 0; p < prevNumNodes; ++p) {
        if (nodeForward[p] >= next.numNodes())
            return problem("nodeForward[", p, "] = ", nodeForward[p],
                           " is out of range");
    }
    for (ClassId p = 0; p < prevNumClasses; ++p) {
        if (classForward[p] >= next.numClasses())
            return problem("classForward[", p, "] = ", classForward[p],
                           " is out of range");
    }
    for (NodeId n = 0; n < prevNode.size(); ++n) {
        if (prevNode[n] == kNoNode)
            continue;
        if (prevNode[n] >= prevNumNodes)
            return problem("prevNode[", n, "] = ", prevNode[n],
                           " is out of range");
        if (nodeForward[prevNode[n]] != n)
            return problem("prevNode[", n, "] = ", prevNode[n],
                           " but nodeForward maps it to ",
                           nodeForward[prevNode[n]]);
    }
    std::vector<char> seen(prevNumClasses, 0);
    for (ClassId c = 0; c < prevClasses.size(); ++c) {
        for (ClassId p : prevClasses[c]) {
            if (p >= prevNumClasses)
                return problem("prevClasses[", c, "] holds out-of-range ",
                               p);
            if (classForward[p] != c)
                return problem("prevClasses[", c, "] holds ", p,
                               " but classForward maps it to ",
                               classForward[p]);
            if (seen[p])
                return problem("prev class ", p,
                               " appears under two next classes");
            seen[p] = 1;
        }
    }

    return std::nullopt;
}

} // namespace smoothe::eg
