#include "smoothe/sampler.hpp"

#include <algorithm>
#include <limits>

namespace smoothe::core {

using eg::ClassId;
using eg::kNoNode;
using eg::NodeId;
using extract::Selection;

const Selection&
GreedySampler::sample(const float* cp_row, bool repair)
{
    Selection& sel = sel_;
    for (ClassId cls : chosen_)
        sel.choice[cls] = kNoNode;
    chosen_.clear();
    std::vector<ClassId>& stack = stack_;
    stack.assign(1, graph_.root());
    while (!stack.empty()) {
        const ClassId cls = stack.back();
        stack.pop_back();
        if (sel.choice[cls] != kNoNode)
            continue;

        const auto members = graph_.nodesInClass(cls);
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
        chosen_.push_back(cls);
        for (ClassId child : graph_.children(chosen)) {
            if (sel.choice[child] == kNoNode)
                stack.push_back(child);
        }
    }
    return sel;
}

SeedSampler::SeedSampler(const eg::EGraph& graph,
                         const extract::CyclicSccs& sccs,
                         const cost::CostModel& model)
    : graph_(graph), sccs_(sccs), model_(model), sampler_(graph, sccs),
      last_(Selection::empty(graph)), indicator_(graph.numNodes()),
      samples_(obs::counter("sampler.samples")),
      valid_(obs::counter("sampler.valid_samples")),
      reused_(obs::counter("sampler.reused"))
{}

bool
SeedSampler::draw(const float* cp_row, bool repair)
{
    const Selection& sample = sampler_.sample(cp_row, repair);
    samples_.add(1);
    if (!sample.chosen(graph_.root()))
        return false;
    if (sample.choice == last_.choice) {
        reused_.add(1);
    } else {
        last_.choice = sample.choice;
        lastValid_ = extract::validate(graph_, last_, sccs_).ok();
        if (lastValid_) {
            indicator_.assign(last_);
            lastCost_ = model_.discrete(indicator_);
        }
    }
    if (!lastValid_)
        return false;
    valid_.add(1);
    return true;
}

} // namespace smoothe::core
