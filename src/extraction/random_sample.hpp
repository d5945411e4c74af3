/**
 * @file
 * Random valid-extraction sampling.
 *
 * Sampling a uniformly random *valid* extraction is itself nontrivial on
 * cyclic e-graphs. We use the standard trick: draw random per-e-node
 * weights and run the bottom-up fixed point with those weights — the
 * resulting selection is always complete and acyclic, and different weight
 * draws explore different regions of the solution space (the fixed point
 * is extract::bottomUpWithCosts, the heuristics' worklist). This powers the
 * genetic extractor's decoder (random-key encoding), the MLP cost model's
 * synthetic training data, and the property-based tests.
 */

#ifndef SMOOTHE_EXTRACTION_RANDOM_SAMPLE_HPP
#define SMOOTHE_EXTRACTION_RANDOM_SAMPLE_HPP

#include <vector>

#include "extraction/solution.hpp"
#include "util/rng.hpp"

namespace smoothe::extract {

/** Draws a random valid extraction (see file comment for the method). */
Selection sampleRandomSelection(const eg::EGraph& graph, util::Rng& rng);

/** Draws @p count random valid extractions. */
std::vector<Selection> sampleRandomSelections(const eg::EGraph& graph,
                                              std::size_t count,
                                              util::Rng& rng);

} // namespace smoothe::extract

#endif // SMOOTHE_EXTRACTION_RANDOM_SAMPLE_HPP
