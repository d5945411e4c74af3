#include "eqsat/rules.hpp"

namespace smoothe::eqsat {

const std::vector<Rewrite>&
arithmeticRules()
{
    static const std::vector<Rewrite> rules = {
        rewrite("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        rewrite("mul-comm", "(* ?a ?b)", "(* ?b ?a)"),
        rewrite("add-assoc", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        rewrite("mul-assoc", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"),
        rewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
        rewrite("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))"),
        rewrite("add-zero", "(+ ?a zero)", "?a"),
        rewrite("mul-one", "(* ?a one)", "?a"),
        rewrite("mul-zero", "(* ?a zero)", "zero"),
        rewrite("mul-two-shift", "(* ?a two)", "(<< ?a one)"),
        rewrite("shift-mul-two", "(<< ?a one)", "(* ?a two)"),
        rewrite("square-form", "(* ?a ?a)", "(square ?a)"),
        rewrite("square-unform", "(square ?a)", "(* ?a ?a)"),
        rewrite("double", "(+ ?a ?a)", "(* ?a two)"),
    };
    return rules;
}

const std::vector<Rewrite>&
datapathRules()
{
    static const std::vector<Rewrite> rules = {
        rewrite("mac-fuse", "(+ (* ?a ?b) ?c)", "(mac ?a ?b ?c)"),
        rewrite("mac-unfuse", "(mac ?a ?b ?c)", "(+ (* ?a ?b) ?c)"),
        rewrite("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        rewrite("mul-comm", "(* ?a ?b)", "(* ?b ?a)"),
        rewrite("add-assoc", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        rewrite("mul-three", "(* ?a three)", "(+ ?a (<< ?a one))"),
        rewrite("mul-five", "(* ?a five)", "(+ ?a (<< ?a two))"),
        rewrite("shift-combine", "(<< (<< ?a one) one)", "(<< ?a two)"),
        rewrite("distribute", "(* ?a (+ ?b ?c))",
                "(+ (* ?a ?b) (* ?a ?c))"),
        rewrite("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))"),
    };
    return rules;
}

const std::vector<std::vector<Rewrite>>&
caviarRulePhases()
{
    // Phase order follows Caviar's phased TRS scheduling: normalize
    // cheaply before opening up the search space, and keep the
    // min/max lemmas (the biggest match producers) for last so the
    // node budget is spent on already-normalized classes.
    static const std::vector<std::vector<Rewrite>> phases = {
        // Phase 1: cheap normalization / cancellation.
        {
            rewrite("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
            rewrite("mul-comm", "(* ?a ?b)", "(* ?b ?a)"),
            rewrite("add-zero", "(+ ?a zero)", "?a"),
            rewrite("mul-one", "(* ?a one)", "?a"),
            rewrite("mul-zero", "(* ?a zero)", "zero"),
            rewrite("sub-self", "(- ?a ?a)", "zero"),
            rewrite("sub-zero", "(- ?a zero)", "?a"),
            rewrite("neg-neg", "(neg (neg ?a))", "?a"),
        },
        // Phase 2: structural expansion.
        {
            rewrite("add-assoc", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
            rewrite("mul-assoc", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"),
            rewrite("distribute", "(* ?a (+ ?b ?c))",
                    "(+ (* ?a ?b) (* ?a ?c))"),
            rewrite("factor", "(+ (* ?a ?b) (* ?a ?c))",
                    "(* ?a (+ ?b ?c))"),
            rewrite("sub-to-addneg", "(- ?a ?b)", "(+ ?a (neg ?b))"),
            rewrite("addneg-to-sub", "(+ ?a (neg ?b))", "(- ?a ?b)"),
            rewrite("neg-mul", "(neg (* ?a ?b))", "(* (neg ?a) ?b)"),
        },
        // Phase 3: min/max lemmas (Halide's simplifier workhorses).
        {
            rewrite("min-comm", "(min ?a ?b)", "(min ?b ?a)"),
            rewrite("max-comm", "(max ?a ?b)", "(max ?b ?a)"),
            rewrite("min-self", "(min ?a ?a)", "?a"),
            rewrite("max-self", "(max ?a ?a)", "?a"),
            rewrite("min-assoc", "(min ?a (min ?b ?c))",
                    "(min (min ?a ?b) ?c)"),
            rewrite("max-assoc", "(max ?a (max ?b ?c))",
                    "(max (max ?a ?b) ?c)"),
            rewrite("min-max-absorb", "(min ?a (max ?a ?b))", "?a"),
            rewrite("max-min-absorb", "(max ?a (min ?a ?b))", "?a"),
            rewrite("min-add-distrib", "(+ (min ?a ?b) ?c)",
                    "(min (+ ?a ?c) (+ ?b ?c))"),
            rewrite("min-add-factor", "(min (+ ?a ?c) (+ ?b ?c))",
                    "(+ (min ?a ?b) ?c)"),
            rewrite("max-add-distrib", "(+ (max ?a ?b) ?c)",
                    "(max (+ ?a ?c) (+ ?b ?c))"),
        },
    };
    return phases;
}

} // namespace smoothe::eqsat
