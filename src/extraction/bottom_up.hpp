/**
 * @file
 * Worklist-based heuristic extractors.
 *
 * BottomUpExtractor reimplements egg's default cost-propagation heuristic
 * ("Heuristic (egg)" in the paper's tables): e-class costs start at
 * infinity, leaves seed a queue, and dequeuing an e-node updates its
 * class's best (tree) cost, enqueueing parents on improvement. It
 * minimizes *tree* cost and therefore over-counts shared subexpressions.
 *
 * FasterBottomUpExtractor is the improved variant from the extraction gym
 * ("Heuristic+"): the same worklist, but ties are broken toward e-nodes
 * with fewer children, then smaller DAG footprint via a post-pass that
 * rebuilds the selection top-down sharing already-selected classes.
 */

#ifndef SMOOTHE_EXTRACTION_BOTTOM_UP_HPP
#define SMOOTHE_EXTRACTION_BOTTOM_UP_HPP

#include "extraction/extractor.hpp"

namespace smoothe::extract {

/**
 * The heuristics' worklist fixed point (without heuristic+'s tie-break
 * and refinement) under the given per-node costs, as a rooted
 * selection. With the graph's own node costs it is `heuristic`'s
 * selection. choice entries stay eg::kNoNode for classes not needed
 * (or when the root is infeasible, in which case the root entry is
 * also eg::kNoNode). The genetic decoder and the random sampler run it.
 */
Selection bottomUpWithCosts(const eg::EGraph& graph,
                            const std::vector<double>& node_costs);

/** egg's default greedy/iterative heuristic. */
class BottomUpExtractor : public Extractor
{
  public:
    std::string name() const override { return "heuristic"; }

  protected:
    ExtractionResult extractImpl(const eg::EGraph& graph,
                                 const ExtractOptions& options) override;
};

/** The extraction-gym "faster-bottom-up" improved heuristic. */
class FasterBottomUpExtractor : public Extractor
{
  public:
    std::string name() const override { return "heuristic+"; }

  protected:
    ExtractionResult extractImpl(const eg::EGraph& graph,
                                 const ExtractOptions& options) override;
};

} // namespace smoothe::extract

#endif // SMOOTHE_EXTRACTION_BOTTOM_UP_HPP
