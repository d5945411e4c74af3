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
    explicit GreedySampler(const eg::EGraph& graph) : graph_(graph) {}

    /**
     * Samples a selection from one seed's cp row.
     * @param cp_row numNodes() conditional probabilities
     * @param repair skip cycle-closing members instead of failing
     * @return a selection; root entry is eg::kNoNode on dead ends
     */
    extract::Selection sample(const float* cp_row, bool repair);

  private:
    bool createsCycle(const extract::Selection& sel, eg::ClassId cls);

    const eg::EGraph& graph_;
    std::vector<eg::NodeId> scratch_;
    std::vector<bool> visited_;
    std::vector<eg::ClassId> dfs_;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_SAMPLER_HPP
