/**
 * @file
 * Configuration for the SmoothE differentiable extractor.
 */

#ifndef SMOOTHE_SMOOTHE_CONFIG_HPP
#define SMOOTHE_SMOOTHE_CONFIG_HPP

#include <cstddef>
#include <cstdint>

namespace smoothe::core {

/**
 * Parent-correlation assumption used by the phi probability computation
 * (Section 3.3): how P(e-class chosen) combines parent probabilities.
 */
enum class Assumption {
    Independent, ///< 1 - prod(1 - p_parent)          (Eq. 6)
    Correlated,  ///< max(p_parent)                   (Eq. 7)
    Hybrid,      ///< average of the two              (default)
};

/** Returns a short label ("independent", ...). */
const char* toString(Assumption assumption);

/** All SmoothE hyper-parameters (paper defaults where stated). */
struct SmoothEConfig
{
    /** Parent-correlation assumption (the paper's default is hybrid). */
    Assumption assumption = Assumption::Hybrid;

    /** Seed-batch size B (Section 4.2). */
    std::size_t numSeeds = 16;

    /** Adam learning rate for theta. */
    float learningRate = 0.1f;

    /** NOTEARS penalty coefficient lambda (Eq. 10a). */
    float lambda = 8.0f;

    /** Maximum optimization iterations (the paper's timeout criterion). */
    std::size_t maxIterations = 400;

    /** Stop after this many iterations without sampled-cost improvement. */
    std::size_t patience = 60;

    /**
     * Probability-propagation iterations per forward pass. 0 means
     * auto-derive from the class-graph depth (clamped to [4, 48]).
     */
    std::size_t propagationIterations = 0;

    /**
     * Damping factor for the probability propagation (extension beyond
     * the paper, from the loopy-BP literature): the class probability is
     * updated as q <- (1 - damping) * q_new + damping * q_old. 0 disables
     * damping (the paper's parallel schedule); values around 0.3 smooth
     * oscillations on strongly cyclic e-graphs.
     */
    float damping = 0.0f;

    /**
     * Sampling temperature (extension beyond the paper): 0 reproduces the
     * paper's deterministic arg-max-cp sampler; values > 0 draw e-nodes
     * with probability proportional to cp^(1/T) via Gumbel perturbation,
     * trading per-iteration greediness for exploration.
     */
    float sampleTemperature = 0.0f;

    /**
     * Linearly anneal the NOTEARS coefficient from 0 to `lambda` over
     * this many iterations (extension: lets early optimization focus on
     * cost before the acyclicity pressure kicks in). 0 applies full
     * lambda from the first iteration, as in the paper.
     */
    std::size_t lambdaWarmupIterations = 0;

    /** Use SCC decomposition for the NOTEARS term (Section 4.3). */
    bool sccDecomposition = true;

    /**
     * Use the batched matrix-exponential approximation of Eq. 11 (average
     * the per-seed transition matrices before one exponential).
     */
    bool batchedMatexp = true;

    /**
     * Cycle-aware sampling: when the arg-max e-node would close a cycle,
     * fall back to the next-best member. The paper relies purely on the
     * NOTEARS penalty; repair makes the sampler total (engineering
     * addition, can be disabled to reproduce the paper exactly).
     */
    bool repairSampling = true;

    /**
     * Worker threads for the batched kernels and the per-seed sampling
     * stage. 0 leaves the process-wide pool as configured (auto =
     * hardware_concurrency, or whatever --threads selected); a positive
     * value resizes the pool. Results are bit-identical for every thread
     * count — see the determinism contract in DESIGN.md.
     */
    std::size_t numThreads = 0;

    /**
     * Arena budget in bytes for all tensors of this run; 0 = unlimited.
     * Emulates GPU memory capacity (Table 5). Exhaustion surfaces as an
     * OOM failure.
     */
    std::size_t memoryBudgetBytes = 0;

    /** Record per-iteration relaxed loss f(p) and sampled loss f_b(s)
     *  (Figure 9). */
    bool recordLossCurves = false;

    /**
     * Convergence recording (anytime-curve telemetry): every run keeps a
     * ring buffer of per-iteration (loss, soft cost, sampled cost, grad
     * norm, wall time) points in SmoothEDiagnostics::convergence and —
     * when a process report is installed — in the report's
     * "smoothe.convergence" series. `convergenceStride` keeps every k-th
     * iteration; the ring holds the latest 4096 recorded points.
     */
    std::size_t convergenceStride = 1;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_CONFIG_HPP
