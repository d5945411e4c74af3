/**
 * @file
 * Reusable rewrite-rule libraries for the equality-saturation engine,
 * mirroring the rule sets of the systems the paper's datasets come from:
 * generic arithmetic identities, rover-style datapath rules, and
 * Caviar's phased TRS rules. Used by the eqsat-grown dataset
 * generators, the benches, and tests.
 */

#ifndef SMOOTHE_EQSAT_RULES_HPP
#define SMOOTHE_EQSAT_RULES_HPP

#include <vector>

#include "eqsat/term.hpp"

namespace smoothe::eqsat {

/**
 * Arithmetic identities over {+, *, <<, neg, zero, one, two}:
 * commutativity, associativity, distributivity, identity/annihilator
 * elimination, strength reduction (x * 2 -> x << 1), and square forming.
 */
const std::vector<Rewrite>& arithmeticRules();

/**
 * Datapath-style rules used to grow rover-like e-graphs: multiply-add
 * fusion/unfusion, shift-add decompositions of constant multiplies.
 */
const std::vector<Rewrite>& datapathRules();

/**
 * Caviar-style TRS rules over a Halide-flavored expression language
 * ({+, -, *, min, max, neg} with small constants), split into the
 * phases Caviar's phased scheduler runs in order: cheap normalization
 * first, structural expansion second, min/max lemmas last. Each phase
 * is a self-contained rule set; growCaviarEGraph cycles through them.
 */
const std::vector<std::vector<Rewrite>>& caviarRulePhases();

} // namespace smoothe::eqsat

#endif // SMOOTHE_EQSAT_RULES_HPP
