#include "smoothe/sampler.hpp"

#include <algorithm>
#include <limits>

namespace smoothe::core {

using eg::ClassId;
using eg::kNoNode;
using eg::NodeId;
using extract::Selection;

Selection
GreedySampler::sample(const float* cp_row, bool repair)
{
    Selection sel = Selection::empty(graph_);
    std::vector<ClassId> stack{graph_.root()};
    while (!stack.empty()) {
        const ClassId cls = stack.back();
        stack.pop_back();
        if (sel.choice[cls] != kNoNode)
            continue;

        const auto& members = graph_.nodesInClass(cls);
        NodeId chosen = kNoNode;
        float best = -std::numeric_limits<float>::infinity();
        for (NodeId nid : members) {
            if (cp_row[nid] > best) {
                best = cp_row[nid];
                chosen = nid;
            }
        }
        if (repair && chosen != kNoNode &&
            sccs_.id[cls] != extract::CyclicSccs::kNone) {
            // Only a class in a cyclic SCC can close a cycle. When its
            // arg-max does, try members in decreasing cp, ties in member
            // order, until one is acyclic.
            sel.choice[cls] = chosen;
            if (cycleCheck_.closesCycle(sel.choice, cls)) {
                chosen = kNoNode;
                scratch_.assign(members.begin(), members.end());
                std::stable_sort(scratch_.begin(), scratch_.end(),
                                 [&](NodeId a, NodeId b) {
                                     return cp_row[a] > cp_row[b];
                                 });
                for (NodeId nid : scratch_) {
                    sel.choice[cls] = nid;
                    if (!cycleCheck_.closesCycle(sel.choice, cls)) {
                        chosen = nid;
                        break;
                    }
                    sel.choice[cls] = kNoNode;
                }
            }
        }
        if (chosen == kNoNode) {
            // Dead end; report an invalid selection.
            sel.choice[graph_.root()] = kNoNode;
            return sel;
        }
        sel.choice[cls] = chosen;
        for (ClassId child : graph_.node(chosen).children) {
            if (sel.choice[child] == kNoNode)
                stack.push_back(child);
        }
    }
    return sel;
}

} // namespace smoothe::core
