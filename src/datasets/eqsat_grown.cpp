#include "datasets/eqsat_grown.hpp"

#include <string>

#include "check/contracts.hpp"
#include "eqsat/mut_egraph.hpp"
#include "eqsat/rules.hpp"

namespace smoothe::datasets {

using eqsat::TermPtr;

namespace {

/**
 * "v<index>", built by append rather than `"v" + std::to_string(...)`:
 * the operator+(const char*, string&&) insert path trips GCC 12's
 * -Wrestrict false positive (GCC PR 105329) under -O2 -Werror.
 */
std::string
varName(std::size_t index)
{
    std::string name = "v";
    name += std::to_string(index);
    return name;
}

TermPtr
randomArithTerm(std::size_t depth, std::size_t num_vars, util::Rng& rng)
{
    if (depth == 0 || rng.bernoulli(0.25)) {
        // Leaf: variable or small constant.
        const double pick = rng.uniform();
        if (pick < 0.6) {
            return eqsat::leaf(varName(rng.uniformIndex(num_vars)));
        }
        if (pick < 0.75)
            return eqsat::leaf("zero");
        if (pick < 0.9)
            return eqsat::leaf("one");
        return eqsat::leaf("two");
    }
    const double pick = rng.uniform();
    if (pick < 0.45) {
        return eqsat::app("+", {randomArithTerm(depth - 1, num_vars, rng),
                                randomArithTerm(depth - 1, num_vars, rng)});
    }
    if (pick < 0.85) {
        return eqsat::app("*", {randomArithTerm(depth - 1, num_vars, rng),
                                randomArithTerm(depth - 1, num_vars, rng)});
    }
    return eqsat::app("<<", {randomArithTerm(depth - 1, num_vars, rng),
                             eqsat::leaf("one")});
}

TermPtr
randomDatapathTerm(std::size_t depth, std::size_t num_vars, util::Rng& rng)
{
    if (depth == 0 || rng.bernoulli(0.3)) {
        const double pick = rng.uniform();
        if (pick < 0.7) {
            return eqsat::leaf(varName(rng.uniformIndex(num_vars)));
        }
        if (pick < 0.85)
            return eqsat::leaf("three");
        return eqsat::leaf("five");
    }
    const double pick = rng.uniform();
    if (pick < 0.5) {
        return eqsat::app(
            "+", {randomDatapathTerm(depth - 1, num_vars, rng),
                  randomDatapathTerm(depth - 1, num_vars, rng)});
    }
    return eqsat::app("*", {randomDatapathTerm(depth - 1, num_vars, rng),
                            randomDatapathTerm(depth - 1, num_vars, rng)});
}

TermPtr
randomCaviarTerm(std::size_t depth, std::size_t num_vars, util::Rng& rng)
{
    if (depth == 0 || rng.bernoulli(0.25)) {
        const double pick = rng.uniform();
        if (pick < 0.7) {
            return eqsat::leaf(varName(rng.uniformIndex(num_vars)));
        }
        if (pick < 0.85)
            return eqsat::leaf("zero");
        return eqsat::leaf("one");
    }
    const double pick = rng.uniform();
    if (pick < 0.3) {
        return eqsat::app("+", {randomCaviarTerm(depth - 1, num_vars, rng),
                                randomCaviarTerm(depth - 1, num_vars,
                                                 rng)});
    }
    if (pick < 0.5) {
        return eqsat::app("-", {randomCaviarTerm(depth - 1, num_vars, rng),
                                randomCaviarTerm(depth - 1, num_vars,
                                                 rng)});
    }
    if (pick < 0.65) {
        return eqsat::app("*", {randomCaviarTerm(depth - 1, num_vars, rng),
                                randomCaviarTerm(depth - 1, num_vars,
                                                 rng)});
    }
    if (pick < 0.85) {
        return eqsat::app("min",
                          {randomCaviarTerm(depth - 1, num_vars, rng),
                           randomCaviarTerm(depth - 1, num_vars, rng)});
    }
    return eqsat::app("max", {randomCaviarTerm(depth - 1, num_vars, rng),
                              randomCaviarTerm(depth - 1, num_vars, rng)});
}

double
operatorCost(const std::string& op)
{
    if (op == "zero" || op == "one" || op == "two" || op == "three" ||
        op == "five" || op.rfind("v", 0) == 0)
        return 0.0;
    if (op == "+" || op == "-")
        return 4.0;
    if (op == "<<" || op == "neg")
        return 1.0;
    if (op == "min" || op == "max")
        return 2.0;
    if (op == "*" || op == "square")
        return 16.0;
    if (op == "mac")
        return 17.0; // fused: cheaper than separate * then +
    return 8.0;
}

} // namespace

TermPtr
randomTerm(TermFlavor flavor, std::size_t depth, std::size_t num_vars,
           util::Rng& rng)
{
    switch (flavor) {
      case TermFlavor::Arithmetic:
        return randomArithTerm(depth, num_vars, rng);
      case TermFlavor::Datapath:
        return randomDatapathTerm(depth, num_vars, rng);
      case TermFlavor::Caviar:
        return randomCaviarTerm(depth, num_vars, rng);
    }
    return eqsat::leaf("v0");
}

eg::EGraph
growEGraph(TermFlavor flavor, std::size_t depth, std::size_t max_nodes,
           util::Rng& rng)
{
    if (flavor == TermFlavor::Caviar)
        return growCaviarEGraph(depth, max_nodes, rng);
    const TermPtr term = randomTerm(flavor, depth, 4, rng);
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*term);

    const auto& rules = flavor == TermFlavor::Arithmetic
                            ? eqsat::arithmeticRules()
                            : eqsat::datapathRules();
    eqsat::RunLimits limits;
    limits.maxIterations = 8;
    limits.maxNodes = max_nodes;
    limits.maxMatchesPerRule = 2000;
    mut.run(rules, limits);

    return mut.exportGraph(root, [](const std::string& op, std::size_t) {
        return operatorCost(op);
    });
}

eg::EGraph
growFirEGraph(std::size_t taps, std::size_t max_nodes, util::Rng& rng)
{
    // sum_k c_k * x_k with small-constant coefficients, like the rover
    // fir_* kernels.
    SMOOTHE_CHECK(taps >= 1, "FIR kernel needs at least one tap");
    const char* coefficients[] = {"two", "three", "five", "one"};
    TermPtr acc;
    for (std::size_t k = 0; k < taps; ++k) {
        TermPtr tap = eqsat::app(
            "*", {eqsat::leaf(coefficients[k % 4]),
                  eqsat::leaf(varName(k))});
        acc = acc ? eqsat::app("+", {acc, tap}) : tap;
    }
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*acc);
    eqsat::RunLimits limits;
    limits.maxIterations = 7;
    limits.maxNodes = max_nodes;
    limits.maxMatchesPerRule = 2000;
    mut.run(eqsat::datapathRules(), limits);
    (void)rng;
    return mut.exportGraph(root, [](const std::string& op, std::size_t) {
        return operatorCost(op);
    });
}

eg::EGraph
growCaviarEGraph(std::size_t depth, std::size_t max_nodes, util::Rng& rng)
{
    // A leaf root would leave a one-node graph with nothing to extract;
    // redraw from the same stream until the root is an operator.
    TermPtr term = randomTerm(TermFlavor::Caviar, depth, 4, rng);
    while (term->children.empty())
        term = randomTerm(TermFlavor::Caviar, depth, 4, rng);
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*term);

    // Phased scheduling (Caviar): each phase gets a growing slice of
    // the node budget — normalization barely grows the graph, the
    // min/max lemma phase takes whatever is left.
    const auto& phases = eqsat::caviarRulePhases();
    std::size_t phaseIndex = 0;
    for (const auto& phase : phases) {
        ++phaseIndex;
        eqsat::RunLimits limits;
        limits.maxIterations = 4;
        limits.maxNodes = max_nodes * phaseIndex / phases.size();
        limits.maxMatchesPerRule = 1500;
        mut.run(phase, limits);
    }

    return mut.exportGraph(root, [](const std::string& op, std::size_t) {
        return operatorCost(op);
    });
}

std::vector<NamedEGraph>
generateCaviarFamily(double scale, std::uint64_t seed)
{
    // Ten instances like the upstream caviar benchmark buckets; depth
    // steps through the jitter range so the family spans small to
    // saturation-bounded graphs. `scale` moves the node budget, like
    // the structured families' class-count scaling.
    constexpr std::size_t kGraphs = 10;
    std::vector<NamedEGraph> out;
    out.reserve(kGraphs);
    const std::size_t budget = std::max<std::size_t>(
        200, static_cast<std::size_t>(4000 * scale));
    for (std::size_t i = 0; i < kGraphs; ++i) {
        util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        const std::size_t depth = 3 + (i % 4);
        NamedEGraph named;
        named.family = "caviar";
        named.name = "caviar_" + std::to_string(i);
        named.graph = growCaviarEGraph(depth, budget, rng);
        out.push_back(std::move(named));
    }
    return out;
}

} // namespace smoothe::datasets
