/**
 * @file
 * Genetic-algorithm extractor (the paper's meta-heuristic baseline for
 * non-linear cost models, Section 5.5).
 *
 * Uses a random-key encoding: a genome is one weight per e-node, decoded
 * into a valid extraction by the bottom-up fixed point (always complete
 * and acyclic, so no repair step is needed). Fitness is an arbitrary
 * black-box cost over discrete selections, which is exactly why the paper
 * includes a GA: unlike ILP/heuristics it can score non-linear models —
 * but it explores large spaces poorly and gets stuck in local minima.
 */

#ifndef SMOOTHE_EXTRACTION_GENETIC_HPP
#define SMOOTHE_EXTRACTION_GENETIC_HPP

#include <functional>

#include "extraction/extractor.hpp"

namespace smoothe::extract {

/** Black-box discrete cost: lower is better. */
using DiscreteCost =
    std::function<double(const eg::EGraph&, const Selection&)>;

/** Single-objective GA over random-key genomes. */
class GeneticExtractor : public Extractor
{
  public:
    std::string name() const override { return "genetic"; }

    /** Arbitrary discrete objective (e.g. trained MLP cost). */
    ExtractionResult extractWithCost(const eg::EGraph& graph,
                                     const DiscreteCost& cost,
                                     const ExtractOptions& options);

  protected:
    /** Linear objective (graph per-node costs). */
    ExtractionResult extractImpl(const eg::EGraph& graph,
                                 const ExtractOptions& options) override;
};

} // namespace smoothe::extract

#endif // SMOOTHE_EXTRACTION_GENETIC_HPP
