/**
 * @file
 * The discrete sampling stage of SmoothE (Section 3.5): converts one
 * seed's conditional probabilities cp into a valid extraction by walking
 * top-down from the root and picking the arg-max-cp e-node per needed
 * e-class.
 *
 * With repair enabled, members whose selection would close a cycle are
 * skipped in decreasing cp order, making the sampler total on cyclic
 * e-graphs; with repair disabled the caller relies on the NOTEARS
 * penalty, exactly as the paper does, and invalid samples are simply
 * discarded by validation.
 *
 * Every needed class takes its arg-max member, found in one scan; ties
 * between members of equal cp go to the first in class order, with and
 * without repair. Repair is SCC-local (extract::CycleCheck): a class
 * outside every cyclic SCC of the class dependency graph can close no
 * cycle and is never checked, and one check in a cyclic SCC walks only
 * the chosen classes of that SCC, with an O(1) reset. Only when the
 * arg-max of a class in a cyclic SCC closes a cycle are its members
 * sorted by cp, and tried in that order. A sample therefore costs one
 * scan of each needed class's members plus one check per member tried
 * in a cyclic SCC; no check costs O(numClasses).
 */

#ifndef SMOOTHE_SMOOTHE_SAMPLER_HPP
#define SMOOTHE_SMOOTHE_SAMPLER_HPP

#include <vector>

#include "extraction/solution.hpp"

namespace smoothe::core {

/** Cycle-aware greedy sampler over conditional probabilities. */
class GreedySampler
{
  public:
    /** @param sccs CyclicSccs::of(graph); must outlive the sampler */
    GreedySampler(const eg::EGraph& graph, const extract::CyclicSccs& sccs)
        : graph_(graph), sccs_(sccs), cycleCheck_(graph, sccs)
    {}
    GreedySampler(const eg::EGraph&, extract::CyclicSccs&&) = delete;

    /**
     * Samples a selection from one seed's cp row.
     * @param cp_row numNodes() conditional probabilities
     * @param repair skip cycle-closing members instead of failing
     * @return a selection; root entry is eg::kNoNode on dead ends
     */
    extract::Selection sample(const float* cp_row, bool repair);

  private:
    const eg::EGraph& graph_;
    const extract::CyclicSccs& sccs_;
    extract::CycleCheck cycleCheck_;
    std::vector<eg::NodeId> scratch_;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_SAMPLER_HPP
