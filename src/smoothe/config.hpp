/**
 * @file
 * Configuration for the SmoothE differentiable extractor. The defaults
 * run the paper's optimizer: a fixed NOTEARS coefficient (Eq. 10a), the
 * undamped parallel propagation schedule (Eqs. 5-7) and arg-max
 * sampling (Section 3.5). Every run records its per-iteration
 * trajectory in SmoothEDiagnostics::convergence (see convergence.hpp).
 */

#ifndef SMOOTHE_SMOOTHE_CONFIG_HPP
#define SMOOTHE_SMOOTHE_CONFIG_HPP

#include <cstddef>
#include <cstdint>

#include "tensor/kernels.hpp"

namespace smoothe::core {

/**
 * Parent-correlation assumption used by the phi probability computation
 * (Section 3.3); the propagation kernel that applies it defines it.
 */
using Assumption = tensor::Assumption;

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
     * Arena budget in bytes for all tensors of this run; 0 = unlimited.
     * Emulates GPU memory capacity (Table 5). Exhaustion surfaces as an
     * OOM failure.
     */
    std::size_t memoryBudgetBytes = 0;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_CONFIG_HPP
