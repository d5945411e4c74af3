/**
 * @file
 * E-graphs grown by actual equality saturation (as the paper's real
 * corpora were), complementing the structure-matched synthetic
 * generators: random expression trees in a family-specific term language
 * are saturated under that family's rewrite rules, then exported with a
 * family-specific operator cost model.
 *
 * These are smaller than the structured synthetics (saturation is
 * expensive) but exercise the exact pipeline the upstream projects used,
 * so they serve as a fidelity cross-check in tests and examples.
 */

#ifndef SMOOTHE_DATASETS_EQSAT_GROWN_HPP
#define SMOOTHE_DATASETS_EQSAT_GROWN_HPP

#include "datasets/generators.hpp"
#include "eqsat/term.hpp"
#include "util/rng.hpp"

namespace smoothe::datasets {

/** Term-language flavor for random expression generation. */
enum class TermFlavor {
    Arithmetic, ///< +/*/shift over variables and small constants
    Datapath,   ///< FIR-like multiply-accumulate chains (rover-flavored)
    Caviar,     ///< Halide-style +/-/*/min/max exprs (caviar-flavored)
};

/**
 * Generates a random expression tree.
 * @param depth maximum tree depth
 * @param num_vars number of distinct leaf variables
 */
eqsat::TermPtr randomTerm(TermFlavor flavor, std::size_t depth,
                          std::size_t num_vars, util::Rng& rng);

/**
 * Grows an e-graph from a random term by equality saturation.
 * @param flavor term language and rule set
 * @param depth expression depth (graph size grows quickly with it)
 * @param max_nodes saturation node budget
 * @return finalized extraction e-graph with family-flavored costs
 */
eg::EGraph growEGraph(TermFlavor flavor, std::size_t depth,
                      std::size_t max_nodes, util::Rng& rng);

/**
 * An eqsat-grown FIR filter e-graph (rover-style): sum of k coefficient
 * taps, saturated under the datapath rules.
 */
eg::EGraph growFirEGraph(std::size_t taps, std::size_t max_nodes,
                         util::Rng& rng);

/**
 * Grows a caviar-style e-graph with phased scheduling: the TRS phases
 * of eqsat::caviarRulePhases() run in order (normalize, expand, min/max
 * lemmas), each with its own slice of the node budget — the schedule
 * Caviar uses to keep Halide-style rule sets from blowing up the graph
 * before the interesting lemmas fire. A leaf root term is redrawn from
 * the same stream, so the graph always has an operator at its root.
 */
eg::EGraph growCaviarEGraph(std::size_t depth, std::size_t max_nodes,
                            util::Rng& rng);

/**
 * The eighth dataset family: caviar-flavored e-graphs grown by phased
 * equality saturation from random Halide-style expressions. Unlike the
 * structure-matched synthetics this family exercises the real rewrite
 * pipeline, which is what the anytime/incremental benchmarks replay
 * epoch by epoch. Deterministic in (scale, seed).
 */
std::vector<NamedEGraph> generateCaviarFamily(double scale,
                                              std::uint64_t seed);

} // namespace smoothe::datasets

#endif // SMOOTHE_DATASETS_EQSAT_GROWN_HPP
