/**
 * @file
 * A mutable e-graph for equality saturation: union-find over e-class ids
 * with hashconsing of e-nodes, congruence-closure rebuilding, e-matching,
 * and a saturation runner. Mirrors the architecture of egg (Willsey et
 * al., POPL 2021) at a smaller scale.
 *
 * After saturation, exportGraph() converts into the immutable
 * extraction-oriented smoothe::eg::EGraph with a caller-provided per-op
 * cost function.
 */

#ifndef SMOOTHE_EQSAT_MUT_EGRAPH_HPP
#define SMOOTHE_EQSAT_MUT_EGRAPH_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "egraph/delta.hpp"
#include "egraph/egraph.hpp"
#include "eqsat/delta.hpp"
#include "eqsat/term.hpp"

namespace smoothe::eqsat {

/** A hashconsed e-node: interned op symbol + canonical child class ids. */
struct Node
{
    std::uint32_t op; ///< symbol id
    std::vector<Id> children;

    bool
    operator==(const Node& other) const
    {
        return op == other.op && children == other.children;
    }
};

/** Hash for hashconsing nodes. */
struct NodeHash
{
    std::size_t
    operator()(const Node& node) const
    {
        std::size_t h = node.op * 0x9e3779b97f4a7c15ULL;
        for (Id child : node.children)
            h = (h ^ child) * 0x100000001b3ULL;
        return h;
    }
};

/** Variable bindings produced by e-matching: var name -> e-class. */
using Subst = std::map<std::string, Id>;

/**
 * Cross-epoch identity carried by exportIncremental(): how the previous
 * export's dense node/class ids map onto the mutable graph, so the next
 * export can emit a GraphDelta relating the two. Value-semantic; owned
 * by whoever drives the saturation loop.
 */
struct ExportState
{
    bool valid = false;
    std::size_t prevNumNodes = 0;
    std::size_t prevNumClasses = 0;
    /** prev canonical mutable id -> prev export class. */
    std::unordered_map<Id, eg::ClassId> classOfMut;
    /** prev canonical node form -> prev export node id. */
    std::unordered_map<Node, eg::NodeId, NodeHash> nodeByForm;
};

/** One incremental export: the new graph plus the delta from the last. */
struct ExportResult
{
    eg::EGraph graph;
    eg::GraphDelta delta;
};

/** Statistics for one saturation run. */
struct RunStats
{
    std::size_t iterations = 0;
    std::size_t totalMatches = 0;
    std::size_t finalNodes = 0;
    std::size_t finalClasses = 0;
    bool saturated = false;   ///< no new nodes/merges in the last iteration
    bool hitNodeLimit = false;
};

/** Limits for the saturation runner. */
struct RunLimits
{
    std::size_t maxIterations = 16;
    std::size_t maxNodes = 100000;
    /** Per-rule match cap per iteration to keep growth polynomial. */
    std::size_t maxMatchesPerRule = 10000;
};

/** The mutable e-graph. */
class MutEGraph
{
  public:
    MutEGraph() = default;

    /** Interns an operator symbol. */
    std::uint32_t internSymbol(const std::string& name);

    /** Returns the symbol string for an interned id. */
    const std::string& symbolName(std::uint32_t id) const;

    /** Adds (or finds) an e-node; children are canonicalized. */
    Id add(const std::string& op, std::vector<Id> children);

    /** Adds a ground term bottom-up; returns its e-class. */
    Id addTerm(const Term& term);

    /** Canonical representative of an e-class id. */
    Id find(Id id) const;

    /** Merges two e-classes; returns the surviving representative. */
    Id merge(Id a, Id b);

    /**
     * Restores the congruence invariant after merges (egg-style deferred
     * rebuild): re-canonicalizes nodes and merges classes that became
     * congruent.
     */
    void rebuild();

    /**
     * Deep structural validator (see DESIGN.md "Correctness tooling"):
     * union-find ids in range, absorbed classes emptied, and — once the
     * worklist is drained — full hashcons/class-list agreement: every
     * stored node canonicalizes to a hashcons entry resolving back to
     * its class, every hashcons key is canonical, and no node is owned
     * by two classes. While the delta log is enabled it also validates
     * the pending log against the materialized graph: the id count
     * equals the log base plus the logged adds, the logged symbols match
     * the symbol table tail, every logged merge has actually been
     * applied, and every logged add resolves through the hashcons to
     * its logged class. SMOOTHE_DEBUG_INVARIANTS builds run this after
     * every rebuild() in run().
     * @return std::nullopt when healthy, else the first problem found.
     */
    std::optional<std::string> checkInvariants() const;

    /** Number of canonical e-classes. */
    std::size_t numClasses() const;

    /** Total number of distinct e-nodes. */
    std::size_t numNodes() const { return hashcons_.size(); }

    /**
     * E-matching: finds substitutions under which the pattern matches
     * some node in the given e-class. The budget caps how many
     * substitutions are enumerated (not merely returned) — nonlinear
     * patterns over heavily merged classes otherwise build
     * cross-products far larger than any caller consumes.
     */
    std::vector<Subst> ematch(const Pattern& pattern, Id cls,
                              std::size_t max_matches = SIZE_MAX) const;

    /** E-matching across all classes; returns (class, subst) pairs. */
    std::vector<std::pair<Id, Subst>>
    ematchAll(const Pattern& pattern,
              std::size_t max_matches = SIZE_MAX) const;

    /** Instantiates a pattern under a substitution, adding nodes. */
    Id instantiate(const Pattern& pattern, const Subst& subst);

    /**
     * Runs equality saturation with the given rules and limits.
     * The graph must already contain the initial term(s).
     */
    RunStats run(const std::vector<Rewrite>& rules, const RunLimits& limits);

    /**
     * Exports into the immutable extraction e-graph: exportIncremental()'s
     * graph, from a fresh ExportState. Requires a rebuilt graph.
     * @param root e-class that becomes the extraction root
     * @param cost_of maps an operator name (and arity) to a per-node cost
     */
    eg::EGraph exportGraph(
        Id root,
        const std::function<double(const std::string&, std::size_t)>&
            cost_of) const;

    /**
     * Exports into the immutable extraction e-graph and emits the
     * GraphDelta mapping the previous export recorded in `state` onto
     * this one. On the first call (state.valid == false) the delta is
     * the trivial "everything is new" delta. The state is updated in
     * place for the next epoch. Requires a rebuilt graph.
     */
    ExportResult exportIncremental(
        Id root,
        const std::function<double(const std::string&, std::size_t)>&
            cost_of,
        ExportState& state) const;

    /**
     * Starts (true) or stops (false) the structural delta log. Starting
     * opens a fresh epoch: pendingDelta() is reset to empty with the
     * current node/symbol counts as its base.
     */
    void enableDeltaLog(bool on);

    /** The mutations logged since the log was last opened/drained. */
    const Delta& pendingDelta() const { return pendingDelta_; }

    /** Returns the pending delta and opens the next epoch. */
    Delta drainDelta();

    /**
     * Replays a drained delta onto this graph (which must be the
     * pre-epoch snapshot): interns the logged symbols, applies every
     * add/merge in order, then rebuilds. Afterwards
     * structurallyEquals(post_epoch_graph) holds — the debug cross-check
     * run after each epoch under SMOOTHE_DEBUG_INVARIANTS.
     */
    void applyDelta(const Delta& delta);

    /**
     * Structural equality with another e-graph over the same id space:
     * same ids and symbols, identical union-find partition, and each
     * paired class stores the same set of canonical e-nodes. Internal
     * representative choices and node order are allowed to differ.
     * Both graphs must have drained worklists.
     * @return std::nullopt when equal, else the first difference.
     */
    std::optional<std::string>
    structurallyEquals(const MutEGraph& other) const;

  private:
    /** Nodes currently stored in a class (canonical forms, may go stale
     *  between merges and rebuild()). */
    struct ClassData
    {
        std::vector<Node> nodes;
        /** (node, class) uses for congruence repair. */
        std::vector<std::pair<Node, Id>> parents;
    };

    Id findMutable(Id id);
    Node canonicalize(const Node& node) const;

    /** Test-only backdoor used to corrupt state and prove the validator
     *  catches it (tests/test_check.cpp). */
    friend struct MutEGraphTestPeer;

    std::vector<std::string> symbols_;
    std::unordered_map<std::string, std::uint32_t> symbolIds_;

    mutable std::vector<Id> parent_; // union-find with path halving
    std::vector<ClassData> classes_; // indexed by id (valid at canonical ids)
    std::unordered_map<Node, Id, NodeHash> hashcons_;
    std::vector<Id> worklist_; // classes needing congruence repair

    bool deltaLog_ = false;
    Delta pendingDelta_;
};

} // namespace smoothe::eqsat

#endif // SMOOTHE_EQSAT_MUT_EGRAPH_HPP
