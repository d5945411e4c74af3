/**
 * @file
 * Structural delta between two consecutive exported e-graphs.
 *
 * An equality-saturation loop only ever grows the e-graph: nodes are
 * added and classes are merged, never removed. A GraphDelta captures the
 * resulting mapping between the previous export and the next one so that
 * SmoothE's warm start can carry its parameters forward instead of
 * starting from scratch. Produced by
 * eqsat::MutEGraph::exportIncremental, which owns the ground-truth
 * identity of every node and class across epochs.
 */

#ifndef SMOOTHE_EGRAPH_DELTA_HPP
#define SMOOTHE_EGRAPH_DELTA_HPP

#include <optional>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"

namespace smoothe::eg {

/**
 * Mapping between a previous export ("prev") and the next one ("next").
 *
 * Because saturation is grow-only, every prev node and class survives
 * into the next export: `nodeForward` and `classForward` are total maps.
 * The reverse maps are partial — genuinely new nodes and classes have no
 * preimage — and when congruence collapses several prev nodes into one,
 * `prevNode` records the smallest preimage.
 */
struct GraphDelta
{
    std::size_t prevNumNodes = 0;
    std::size_t prevNumClasses = 0;

    /** prev node -> the next node holding the same canonical e-node. */
    std::vector<NodeId> nodeForward;
    /** prev class -> the next class it survived (or merged) into. */
    std::vector<ClassId> classForward;

    /** next node -> smallest prev preimage, or kNoNode if new. */
    std::vector<NodeId> prevNode;
    /** next class -> its prev preimages (empty = created this epoch,
     *  more than one = classes merged this epoch). */
    std::vector<std::vector<ClassId>> prevClasses;

    /**
     * True when nothing changed: both forward maps are the identity and
     * the next graph has as many nodes and classes as the prev one. A
     * merge or a congruent collapse makes a forward map non-injective,
     * and a new node or class grows the next graph, so either is never
     * an identity.
     */
    bool isIdentity() const;

    /** The no-op delta for re-extracting an unchanged graph. */
    static GraphDelta identity(const EGraph& graph);

    /** Fills prevNode/prevClasses from the forward maps. */
    void deriveReverseMaps(std::size_t next_nodes, std::size_t next_classes);

    /**
     * Deep validator against the next graph: map sizes and ranges, and
     * the forward/reverse maps agree. @return std::nullopt when
     * consistent.
     */
    std::optional<std::string> checkConsistent(const EGraph& next) const;
};

} // namespace smoothe::eg

#endif // SMOOTHE_EGRAPH_DELTA_HPP
