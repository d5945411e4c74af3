/**
 * @file
 * SmoothE: differentiable e-graph extraction (the paper's contribution).
 *
 * Pipeline per optimization step (Sections 3 and 4):
 *   1. theta (B x N free parameters, one row per seed) -> softmax within
 *      each e-class -> conditional probabilities cp (Eq. 3).
 *   2. phi: propagate unconditional probabilities p from the root through
 *      the whole e-graph with the parallel schedule (Eqs. 5-7), iterated a
 *      fixed number of times so cyclic graphs converge.
 *   3. Differentiable objective f(p) from the cost model (linear or any
 *      non-linear differentiable model, e.g. an MLP).
 *   4. NOTEARS acyclicity penalty tr(exp(A)) - d per SCC of the class
 *      dependency graph, optionally with the batched approximation of
 *      Eq. 11.
 *   5. Adam update of theta; then per-seed discrete sampling by arg-max
 *      cp, keeping the best valid solution seen (Section 3.5).
 */

#ifndef SMOOTHE_SMOOTHE_SMOOTHE_HPP
#define SMOOTHE_SMOOTHE_SMOOTHE_HPP

#include <memory>
#include <vector>

#include "costmodel/cost_model.hpp"
#include "egraph/delta.hpp"
#include "extraction/extractor.hpp"
#include "obs/phase_profiler.hpp"
#include "smoothe/config.hpp"
#include "smoothe/convergence.hpp"
#include "util/timer.hpp"

namespace smoothe::core {

/** Extended result with SmoothE-specific diagnostics. */
struct SmoothEDiagnostics
{
    std::size_t iterations = 0;
    std::size_t propagationIterations = 0;
    std::size_t sccCount = 0;        ///< non-trivial SCCs penalized
    std::size_t largestScc = 0;
    std::size_t peakMemoryBytes = 0;
    std::size_t tapeNodes = 0;       ///< peak autodiff tape size across the run
    std::size_t threads = 1;         ///< worker pool size used by the run
    std::size_t programBuffers = 0;  ///< reusable value+grad slots planned
    double bufferReuseRatio = 0.0;   ///< rebuild bytes / planned bytes (>= 1)
    bool outOfMemory = false;
    obs::PhaseProfiler profile;      ///< Figure 8 phase breakdown
    /** Per-iteration trajectory (anytime curves, Figure 9's relaxed vs
     *  sampled loss); also dumped into the process report when one is
     *  installed. */
    std::vector<ConvergencePoint> convergence;
    std::size_t convergenceDropped = 0; ///< ring-evicted points
};

/** Relaxed probabilities from one phi evaluation (analysis API). */
struct Probabilities
{
    /** Conditional probabilities cp (Eq. 3), batch x numNodes. */
    ad::Tensor cp;
    /** Class-chosen probabilities q, batch x numClasses. */
    ad::Tensor q;
    /** Unconditional e-node probabilities p (Eq. 5), batch x numNodes. */
    ad::Tensor p;
};

/**
 * Evaluates the differentiable probability computation phi once, without
 * optimization: theta -> softmax-per-class -> cp -> propagate ->
 * (cp, q, p). Exposed so users (and the tests) can inspect exactly what
 * SmoothE optimizes; mirrors the paper's Figure 3 walkthrough.
 *
 * @param theta batch x numNodes free parameters
 * @param propagation_iterations 0 = auto (class-graph depth, clamped)
 */
Probabilities computeProbabilities(const eg::EGraph& graph,
                                   const ad::Tensor& theta,
                                   Assumption assumption,
                                   std::size_t propagation_iterations = 0);

/** The SmoothE extractor. */
class SmoothEExtractor : public extract::Extractor
{
  public:
    SmoothEExtractor() = default;
    explicit SmoothEExtractor(SmoothEConfig config)
        : config_(std::move(config))
    {}

    std::string name() const override { return "SmoothE"; }

    /** Arbitrary differentiable objective (e.g. a trained MLP cost). */
    extract::ExtractionResult
    extractWithCost(const eg::EGraph& graph, const cost::CostModel& model,
                    const extract::ExtractOptions& options);

    /**
     * Re-extracts after the e-graph grew, warm-starting from the
     * previous epoch carried in `state`: theta and the Adam moments are
     * remapped through `delta` (new nodes fall back to the softmax prior,
     * merged classes are re-centered per source group), and the
     * iteration is recorded and compiled afresh for the grown graph
     * (counter `program.rerecord`). An identity delta on an unchanged
     * graph re-emits the cached result. `delta` must relate the graph
     * `state` last saw to `graph` (eqsat::MutEGraph::exportIncremental
     * produces exactly that pairing); on a fresh or reset() state this
     * epoch runs cold. The call aborts (SMOOTHE_CHECK) when `state` was
     * produced by a different extractor or against a different e-graph
     * lineage.
     */
    extract::ExtractionResult
    extractIncremental(const eg::EGraph& graph, const eg::GraphDelta& delta,
                       extract::IncrementalState& state,
                       const extract::ExtractOptions& options);

    /** Diagnostics from the most recent extract() call. */
    const SmoothEDiagnostics& diagnostics() const { return diagnostics_; }

    const SmoothEConfig& config() const { return config_; }
    SmoothEConfig& config() { return config_; }

  protected:
    /** Linear objective taken from the graph's per-node costs. */
    extract::ExtractionResult
    extractImpl(const eg::EGraph& graph,
                const extract::ExtractOptions& options) override;

  private:
    SmoothEConfig config_;
    SmoothEDiagnostics diagnostics_;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_SMOOTHE_HPP
