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
#include <span>
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

/**
 * An operator (or value) node inside an e-class, as a read-only view
 * into the graph's storage (EGraph::node()); it stays valid while the
 * graph lives and no node is added.
 */
struct ENode
{
    /** Operator symbol, e.g. "+", "mul", "conv2d". */
    const std::string& op;
    /** Ordered child e-classes (operands). Empty for leaves. */
    std::span<const ClassId> children;
    /** Per-node cost consumed by the linear cost model. */
    double cost;
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
 * finalize() validates all child references, builds the member and
 * parent indices, and computes statistics. Queries that need an index
 * built by finalize() say so.
 *
 * Storage is flat: each node's children are one slice of a single
 * offsets/items array (appended by addNode()), and each class's members
 * one slice of another (built by finalize()). children() and
 * nodesInClass() return spans over those slices, so a walk over the
 * graph touches two contiguous arrays instead of one heap vector per
 * node or class.
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
    NodeId addNode(ClassId cls, std::string op,
                   const std::vector<ClassId>& children, double cost = 1.0);

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

    std::size_t numNodes() const { return nodeClass_.size(); }
    std::size_t numClasses() const { return numClasses_; }
    ClassId root() const { return root_; }

    /** The e-node with the given id. */
    ENode
    node(NodeId id) const
    {
        return {ops_[id], children(id), costs_[id]};
    }

    /** ch_i: the ordered child e-classes of e-node id. */
    std::span<const ClassId>
    children(NodeId id) const
    {
        return {childItems_.data() + childOffsets_[id],
                childItems_.data() + childOffsets_[id + 1]};
    }

    /** ec(i): the e-class containing e-node id. */
    ClassId classOf(NodeId id) const { return nodeClass_[id]; }

    /** The e-nodes inside e-class cls, ascending (needs finalize). */
    std::span<const NodeId>
    nodesInClass(ClassId cls) const
    {
        return {memberItems_.data() + memberOffsets_[cls],
                memberItems_.data() + memberOffsets_[cls + 1]};
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
    /** pa_j of every class recomputed from the children: one entry per
     *  distinct child class, ascending node ids. */
    std::vector<std::vector<NodeId>> parentIndex() const;

    /** Test-only backdoor used to corrupt state and prove the validator
     *  catches it (tests/test_check.cpp). */
    friend struct EGraphTestPeer;

    std::vector<std::string> ops_;     // node id -> operator symbol
    std::vector<double> costs_;        // node id -> cost
    std::vector<ClassId> nodeClass_;   // node id -> class id
    // node i's children: childItems_[childOffsets_[i], childOffsets_[i + 1])
    std::vector<std::uint32_t> childOffsets_{0};
    std::vector<ClassId> childItems_;
    std::size_t numClasses_ = 0;
    // class j's members, built by finalize():
    // memberItems_[memberOffsets_[j], memberOffsets_[j + 1])
    std::vector<std::uint32_t> memberOffsets_;
    std::vector<NodeId> memberItems_;
    std::vector<std::vector<NodeId>> classParents_; // class id -> parent nodes
    ClassId root_ = kNoClass;
    bool finalized_ = false;
    EGraphStats stats_;
};

} // namespace smoothe::eg

#endif // SMOOTHE_EGRAPH_EGRAPH_HPP
