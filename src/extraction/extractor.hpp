/**
 * @file
 * Common interface for all e-graph extractors (SmoothE, ILP, heuristics,
 * genetic) plus the shared result type and anytime trace.
 */

#ifndef SMOOTHE_EXTRACTION_EXTRACTOR_HPP
#define SMOOTHE_EXTRACTION_EXTRACTOR_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "egraph/egraph.hpp"
#include "extraction/solution.hpp"

namespace smoothe::core {
class SmoothEExtractor;
} // namespace smoothe::core

namespace smoothe::extract {

class Extractor;

/** Terminal status of an extraction run. */
enum class SolveStatus {
    Optimal,    ///< proven optimal (ILP with closed gap)
    Feasible,   ///< valid solution, optimality unknown
    Infeasible, ///< no valid extraction exists
    Failed,     ///< solver could not produce a valid solution in time
};

/** Returns a short human-readable name for a status. */
const char* toString(SolveStatus status);

/** One point on the anytime cost-vs-time curve (Figure 4). */
struct AnytimePoint
{
    double seconds = 0.0;
    double cost = 0.0;
};

/** Outcome of one extractor invocation. */
struct ExtractionResult
{
    SolveStatus status = SolveStatus::Failed;
    Selection selection;
    /** DAG cost under the graph's linear costs (infinity when failed). */
    double cost = 0.0;
    /** Wall-clock seconds spent. */
    double seconds = 0.0;
    /** Incumbent improvements over time, for anytime plots. */
    std::vector<AnytimePoint> trace;
    /** Extractor-specific diagnostics. */
    std::string note;

    bool ok() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }
};

/** Options shared by all extractors. */
struct ExtractOptions
{
    /** Wall-clock budget in seconds; <= 0 means unlimited. */
    double timeLimitSeconds = 0.0;
    /** Base random seed for stochastic extractors. */
    std::uint64_t seed = 1;
};

/** Base class for the state SmoothE carries across epochs. */
struct IncrementalBlob
{
    virtual ~IncrementalBlob() = default;
};

/**
 * Opaque cross-epoch state for core::SmoothEExtractor::extractIncremental.
 * One state tracks one evolving e-graph under one extractor: it records
 * which extractor owns it and the node/class counts of the last graph it
 * saw, and extractIncremental() rejects a state reused across extractors
 * or e-graph lineages with a ContractViolation. Call reset() before
 * pointing an existing state at a fresh graph.
 */
class IncrementalState
{
  public:
    IncrementalState() = default;

    /** True when no previous extraction has been recorded. */
    bool empty() const { return owner_ == nullptr; }

    /** Forgets the previous extraction; the next call starts cold. */
    void reset()
    {
        blob_.reset();
        owner_ = nullptr;
        epoch_ = 0;
        graphNodes_ = 0;
        graphClasses_ = 0;
    }

    /** Number of extractions recorded into this state. */
    std::size_t epoch() const { return epoch_; }

  private:
    friend class core::SmoothEExtractor;

    std::unique_ptr<IncrementalBlob> blob_;
    const Extractor* owner_ = nullptr;
    std::size_t epoch_ = 0;
    std::size_t graphNodes_ = 0;
    std::size_t graphClasses_ = 0;
};

/**
 * Abstract extractor. Implementations keep no hidden state across
 * calls, so extract() stays reproducible and side-effect free.
 */
class Extractor
{
  public:
    virtual ~Extractor() = default;

    /** Human-readable extractor name for tables. */
    virtual std::string name() const = 0;

    /**
     * Extracts a valid solution from a finalized e-graph, minimizing the
     * graph's per-node linear costs (non-linear objectives are handled by
     * extractor-specific entry points). In invariant builds
     * (SMOOTHE_DEBUG_INVARIANTS or Debug) the result is certified with
     * extraction::validateResult() before it reaches the caller, for
     * every extractor uniformly.
     */
    ExtractionResult extract(const eg::EGraph& graph,
                             const ExtractOptions& options);

  protected:
    /** The extractor-specific search behind extract(). */
    virtual ExtractionResult extractImpl(const eg::EGraph& graph,
                                         const ExtractOptions& options) = 0;
};

} // namespace smoothe::extract

#endif // SMOOTHE_EXTRACTION_EXTRACTOR_HPP
