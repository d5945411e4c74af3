/**
 * @file
 * Extraction solutions, validity checking, and DAG cost evaluation.
 *
 * An extraction assigns to each *needed* e-class exactly one chosen e-node.
 * Needed classes are the root plus, transitively, every child class of a
 * chosen e-node. The paper's constraints (Section 2):
 *   (a) exactly one e-node chosen in the root e-class,
 *   (b) for every chosen e-node, exactly one e-node chosen in each child
 *       e-class (completeness),
 *   (c) the chosen subgraph is acyclic.
 *
 * Every walk here reads the e-graph's flat children and member arrays
 * (EGraph::children(), EGraph::nodesInClass()). validate() and
 * CycleCheck are on SmoothE's per-sample path and allocate nothing once
 * their working arrays have grown to the graph: validate() keeps them
 * per thread, a CycleCheck in its members.
 */

#ifndef SMOOTHE_EXTRACTION_SOLUTION_HPP
#define SMOOTHE_EXTRACTION_SOLUTION_HPP

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"

namespace smoothe::extract {

struct NodeIndicator;

/**
 * A (possibly partial) extraction: choice[c] is the chosen e-node of
 * e-class c, or eg::kNoNode when the class is not part of the extraction.
 */
struct Selection
{
    std::vector<eg::NodeId> choice;

    /** Creates an empty selection sized for the graph. */
    static Selection
    empty(const eg::EGraph& graph)
    {
        Selection sel;
        sel.choice.assign(graph.numClasses(), eg::kNoNode);
        return sel;
    }

    bool
    chosen(eg::ClassId cls) const
    {
        return choice[cls] != eg::kNoNode;
    }

    /** Converts to the paper's binary e-node indicator vector s. */
    NodeIndicator toNodeIndicator(const eg::EGraph& graph) const;
};

/**
 * The paper's binary e-node indicator vector s over N e-nodes, packed 64
 * to a word: s_i is bit i % 64 of words[i / 64]. forEachSet() visits
 * only the set bits, in ascending node order, so a linear cost sums
 * exactly the terms, in exactly the order, of a loop over all N entries.
 */
struct NodeIndicator
{
    std::vector<std::uint64_t> words;
    std::size_t size = 0; ///< N

    NodeIndicator() = default;
    /** An all-zero indicator over num_nodes e-nodes. */
    explicit NodeIndicator(std::size_t num_nodes)
        : words((num_nodes + 63) / 64, 0), size(num_nodes)
    {}

    bool
    operator[](std::size_t i) const
    {
        return (words[i / 64] >> (i % 64)) & 1U;
    }

    void
    set(std::size_t i)
    {
        words[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    /** Clears every bit, then sets those of sel's chosen e-nodes. */
    void assign(const Selection& sel);

    /** Calls f(i) for every set bit i, ascending. */
    template <class F>
    void
    forEachSet(F&& f) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
                f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        }
    }
};

/** Why a selection failed validation. */
enum class Violation {
    None,
    RootUnchosen,        ///< constraint (a)
    MissingChild,        ///< constraint (b): chosen node, unchosen child class
    UnreachableChoice,   ///< a chosen class not needed by the extraction
    Cyclic,              ///< constraint (c)
    DanglingNode,        ///< choice[c] is not a member of class c
    CostMismatch,        ///< reported cost != recomputed DAG cost
    StatusMismatch,      ///< result status inconsistent with its contents
};

/** Validation outcome with a message suitable for test diagnostics. */
struct ValidationResult
{
    Violation violation = Violation::None;
    std::string message;

    bool ok() const { return violation == Violation::None; }
};

/**
 * The cyclic strongly connected components of the class dependency graph:
 * those with more than one class, and single classes with a self-loop.
 * Every cycle of a selection lies inside one of them.
 */
struct CyclicSccs
{
    static constexpr std::uint32_t kNone =
        std::numeric_limits<std::uint32_t>::max();

    /** class -> index into classes, or kNone outside every cyclic SCC */
    std::vector<std::uint32_t> id;
    /** each cyclic SCC's classes, in EGraph::classSccs() order */
    std::vector<std::vector<eg::ClassId>> classes;

    static CyclicSccs of(const eg::EGraph& graph);
};

/**
 * Checks constraints (a), (b), (c) plus internal consistency, in this
 * order: every choice is a member of its class, the root is chosen,
 * every class needed from the root is chosen, every chosen class is
 * needed, and the chosen subgraph is acyclic.
 *
 * The membership pass also counts the chosen classes, and the DFS from
 * the root marks the needed ones in a byte array; when the two counts
 * agree every chosen class is needed, so the scan for a chosen class
 * that is not needed runs only when they differ, to name the first one.
 *
 * The acyclicity check is SCC-local and exact: a cycle of the chosen
 * subgraph is a cycle of the class dependency graph, so all its classes
 * lie in one cyclic SCC. The colored DFS therefore starts only from the
 * chosen classes of cyclic SCCs and follows only chosen children in the
 * same SCC; on a graph without cyclic SCCs it does nothing. Since every
 * chosen class is needed by then, it finds a cycle exactly when a DFS
 * from the root would. Its colour array is touched only for the classes
 * of cyclic SCCs.
 *
 * @param graph a finalized e-graph
 * @param sel the candidate extraction
 * @param sccs CyclicSccs::of(graph)
 */
ValidationResult validate(const eg::EGraph& graph, const Selection& sel,
                          const CyclicSccs& sccs);

/** validate(graph, sel, CyclicSccs::of(graph)). */
ValidationResult validate(const eg::EGraph& graph, const Selection& sel);

/**
 * DAG cost of a complete selection: the sum of chosen e-node costs over
 * the classes reachable from the root through the selection, counting each
 * class once (this is the paper's linear objective u^T s, which naturally
 * accounts for common-subexpression reuse).
 *
 * Returns infinity when the selection is incomplete along the way.
 */
double dagCost(const eg::EGraph& graph, const Selection& sel);

/**
 * Tree cost: expands the selection as a tree from the root, counting
 * shared subexpressions once per use. Guarded against cycles (returns
 * infinity) and against astronomically deep expansions via memoization on
 * the class level — cost(c) = cost(node) + sum cost(children).
 */
double treeCost(const eg::EGraph& graph, const Selection& sel);

/**
 * The extraction rooted at the graph's root under per-class choices:
 * class_choice[c] for every class reached from the root through chosen
 * children, eg::kNoNode for the rest. When the root or a reached class
 * has no choice, the result is empty (the root unchosen).
 */
Selection rootedSelection(const eg::EGraph& graph,
                          const std::vector<eg::NodeId>& class_choice);

/**
 * The classes actually needed by the selection (root + transitive chosen
 * children). Returns std::nullopt when the selection is incomplete.
 */
std::optional<std::vector<eg::ClassId>>
neededClasses(const eg::EGraph& graph, const Selection& sel);

/**
 * The incremental cycle check of a top-down extractor: after it sets
 * choice[cls], does the chosen subgraph now hold a cycle through cls?
 *
 * Such a cycle stays inside cls's cyclic SCC, so a class outside every
 * cyclic SCC is answered false at once, and the DFS follows only chosen
 * children in cls's SCC. The visited set is an epoch stamp, so a check
 * costs the chosen part of one SCC, never O(numClasses).
 */
class CycleCheck
{
  public:
    /** Keeps references to both arguments; they must outlive the check. */
    CycleCheck(const eg::EGraph& graph, const CyclicSccs& sccs)
        : graph_(graph), sccs_(sccs), stamp_(graph.numClasses(), 0)
    {}
    CycleCheck(const eg::EGraph&, CyclicSccs&&) = delete;

    /**
     * @param choice chosen e-node per class, eg::kNoNode where undecided
     * @param cls a class whose choice is set
     * @return true when choice[cls] closes a cycle among chosen classes
     */
    bool closesCycle(const std::vector<eg::NodeId>& choice, eg::ClassId cls);

  private:
    const eg::EGraph& graph_;
    const CyclicSccs& sccs_;
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;
    std::vector<eg::ClassId> dfs_;
};

} // namespace smoothe::extract

#endif // SMOOTHE_EXTRACTION_SOLUTION_HPP
