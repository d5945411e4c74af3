/**
 * @file
 * The e-graph data structure used throughout the project.
 *
 * This is the *extraction-oriented* view of an e-graph: a fixed set of
 * e-classes, each containing e-nodes; every e-node has an operator symbol,
 * an ordered list of child e-classes, and a per-node cost used by the
 * linear cost model. The equality-saturation engine (smoothe::eqsat) grows
 * e-graphs with a union-find/hashcons representation and exports into this
 * form; dataset generators and the JSON loader build it directly.
 *
 * Terminology follows the paper (Section 2): N e-nodes n_i, M e-classes
 * m_j, ch_i = child e-classes of e-node i, pa_j = parent e-nodes of
 * e-class j, ec(i) = the e-class containing e-node i.
 */

#ifndef SMOOTHE_EGRAPH_EGRAPH_HPP
#define SMOOTHE_EGRAPH_EGRAPH_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace smoothe::eg {

/** Index of an e-node within an EGraph. */
using NodeId = std::uint32_t;
/** Index of an e-class within an EGraph. */
using ClassId = std::uint32_t;

/** Sentinel for "no e-node". */
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
/** Sentinel for "no e-class". */
constexpr ClassId kNoClass = std::numeric_limits<ClassId>::max();

/** An operator (or value) node inside an e-class. */
struct ENode
{
    /** Operator symbol, e.g. "+", "mul", "conv2d". */
    std::string op;
    /** Ordered child e-classes (operands). Empty for leaves. */
    std::vector<ClassId> children;
    /** Per-node cost consumed by the linear cost model. */
    double cost = 1.0;
};

/** Summary statistics matching the columns of Table 1 in the paper. */
struct EGraphStats
{
    std::size_t numNodes = 0;     ///< N
    std::size_t numClasses = 0;   ///< M
    std::size_t numEdges = 0;     ///< total child edges
    double avgDegree = 0.0;       ///< d(v): average e-node out-degree
    double density = 0.0;         ///< numEdges / (N * M)
    std::size_t maxClassSize = 0; ///< largest e-class cardinality
    std::size_t numLeaves = 0;    ///< e-nodes without children
};

/**
 * An immutable-after-finalize e-graph.
 *
 * Build protocol: addClass() / addNode() / setRoot(), then finalize().
 * finalize() validates all child references, builds the parent index, and
 * computes statistics. Queries that need the parent index assert that
 * finalize() has been called.
 */
class EGraph
{
  public:
    EGraph() = default;

    /** Adds an empty e-class and returns its id. */
    ClassId addClass();

    /**
     * Adds an e-node to the given e-class.
     * Child classes may be forward references (added later), as long as
     * they exist by the time finalize() runs.
     */
    NodeId addNode(ClassId cls, ENode node);

    /** Convenience: adds an e-node from parts. */
    NodeId addNode(ClassId cls, std::string op,
                   std::vector<ClassId> children, double cost = 1.0);

    /** Declares the root e-class (containing the top-level operator). */
    void setRoot(ClassId root) { root_ = root; }

    /**
     * Validates the structure and builds derived indices.
     * @return std::nullopt on success, else a human-readable error.
     */
    std::optional<std::string> finalize();

    /**
     * Deep structural validator (see DESIGN.md "Correctness tooling"):
     * re-derives every index and statistic from the primary node storage
     * and cross-checks — node/class membership is bijective, children and
     * root are in range, the parent index matches a recomputation, stats
     * match a recount, and every cost is finite. O(N + E).
     * @return std::nullopt when healthy, else the first problem found.
     */
    std::optional<std::string> checkInvariants() const;

    /** True once finalize() has succeeded. */
    bool finalized() const { return finalized_; }

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numClasses() const { return classNodes_.size(); }
    ClassId root() const { return root_; }

    /** The e-node with the given id. */
    const ENode& node(NodeId id) const { return nodes_[id]; }

    /** ec(i): the e-class containing e-node id. */
    ClassId classOf(NodeId id) const { return nodeClass_[id]; }

    /** The e-nodes inside e-class cls. */
    const std::vector<NodeId>&
    nodesInClass(ClassId cls) const
    {
        return classNodes_[cls];
    }

    /** pa_j: e-nodes that have e-class cls as a child (needs finalize). */
    const std::vector<NodeId>& parents(ClassId cls) const;

    /** Statistics for Table 1 (needs finalize). */
    const EGraphStats& stats() const;

    /**
     * Strongly connected components of the class dependency graph
     * (edge j -> k iff some e-node in class j has child class k).
     * Components are returned in reverse topological order of the
     * condensation. Needs finalize.
     */
    std::vector<std::vector<ClassId>> classSccs() const;

    /**
     * Classes reachable from the root through any e-node choice.
     * Needs finalize.
     */
    std::vector<ClassId> reachableClasses() const;

  private:
    void requireFinalized() const;

    /** Test-only backdoor used to corrupt state and prove the validator
     *  catches it (tests/test_check.cpp). */
    friend struct EGraphTestPeer;

    std::vector<ENode> nodes_;
    std::vector<ClassId> nodeClass_;            // node id -> class id
    std::vector<std::vector<NodeId>> classNodes_; // class id -> node ids
    std::vector<std::vector<NodeId>> classParents_; // class id -> parent nodes
    ClassId root_ = kNoClass;
    bool finalized_ = false;
    EGraphStats stats_;
};

} // namespace smoothe::eg

#endif // SMOOTHE_EGRAPH_EGRAPH_HPP
