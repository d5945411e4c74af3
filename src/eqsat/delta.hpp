/**
 * @file
 * The mutable e-graph's structural delta log.
 *
 * When logging is enabled, MutEGraph records every structural mutation —
 * e-node additions (each of which creates an e-class) and e-class merges,
 * including the merges congruence repair performs inside rebuild() — in
 * application order, together with any operator symbols interned along
 * the way. Replaying a drained Delta onto a snapshot of the pre-epoch
 * graph and rebuilding reproduces the post-epoch graph structure exactly
 * (MutEGraph::structurallyEquals), which the debug-mode cross-check
 * asserts after every epoch.
 */

#ifndef SMOOTHE_EQSAT_DELTA_HPP
#define SMOOTHE_EQSAT_DELTA_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace smoothe::eqsat {

using Id = std::uint32_t;

/** One logged structural mutation. */
struct DeltaEntry
{
    enum class Kind : std::uint8_t {
        AddNode, ///< hashcons miss: new e-node in a new e-class `cls`
        Merge,   ///< union: class `from` absorbed into class `into`
    };
    Kind kind = Kind::AddNode;

    // AddNode payload. Children are canonical as of the moment the node
    // was added, which is what makes in-order replay exact.
    std::uint32_t op = 0;
    std::vector<Id> children;
    Id cls = 0;

    // Merge payload, post union-by-size: `into` survived.
    Id from = 0;
    Id into = 0;
};

/** The ordered delta for one rewrite epoch. */
struct Delta
{
    /** Mutations in application order. */
    std::vector<DeltaEntry> entries;

    /** Id count (== node count) when the log opened. */
    std::size_t baseNodes = 0;

    /** Symbol-table size when the log opened. */
    std::size_t baseSymbols = 0;
    /** Symbols interned during the epoch, in id order. */
    std::vector<std::string> symbolsAdded;

    bool empty() const { return entries.empty() && symbolsAdded.empty(); }

    std::size_t numAdds() const
    {
        std::size_t n = 0;
        for (const DeltaEntry& entry : entries)
            n += entry.kind == DeltaEntry::Kind::AddNode ? 1 : 0;
        return n;
    }
};

} // namespace smoothe::eqsat

#endif // SMOOTHE_EQSAT_DELTA_HPP
