/**
 * @file
 * Runtime SIMD dispatch for the tensor kernels.
 *
 * The kernels come in two variants: generic
 * portable loops (the "scalar" SIMD level — still auto-vectorizable by
 * the compiler at the baseline ISA) and explicit AVX2 intrinsics
 * (src/tensor/kernels_avx2.cpp, compiled with per-function target
 * attributes so the default build needs no -mavx2). Which variant runs
 * is decided once per process from cpuid plus the SMOOTHE_SIMD
 * environment override and cached in one atomic; kernels pay a single
 * relaxed load per call to dispatch.
 *
 * SMOOTHE_SIMD accepts:
 *   - "scalar": force the generic loops even on AVX2 hardware
 *   - "avx2":   request the AVX2 kernels; falls back to scalar (with a
 *               warning log) when the CPU lacks AVX2
 *   - "auto":   use AVX2 iff the CPU supports it (the default)
 *
 * The Figure 6 CPU baseline is these same kernels at the scalar level
 * on one thread (bench/bench_fig6_ablation.cpp). Every AVX2 kernel
 * except the segment-softmax exponential is bitwise identical to its
 * generic counterpart (see DESIGN.md "SIMD kernels").
 */

#ifndef SMOOTHE_TENSOR_SIMD_HPP
#define SMOOTHE_TENSOR_SIMD_HPP

#include <cstdint>

namespace smoothe::tensor::simd {

/** Instruction-set level a kernel variant targets. */
enum class Level : std::uint8_t {
    Scalar, ///< generic portable loops (baseline ISA)
    Avx2,   ///< 8-lane float / 4-lane double intrinsics
};

/** Highest level this CPU supports (cpuid, probed once). */
Level detectedLevel();

/**
 * The level kernels dispatch on: resolved once from SMOOTHE_SIMD and
 * detectedLevel(), then cached; setLevel() overrides it.
 */
Level activeLevel();

/**
 * Overrides the active level for this process (tests and benches use
 * this to time both variants in one run). Requests above
 * detectedLevel() clamp down to what the CPU supports.
 */
void setLevel(Level level);

/** Stable lowercase name ("scalar", "avx2") for logs and reports. */
const char* levelName(Level level);

/**
 * Kernel-slot suffix for the active level: "@avx2" when AVX2 kernels
 * are dispatched, "" otherwise. The Program compiler appends this to
 * profiler kernel names for ops with SIMD variants so
 * `smoothe_report profile` shows scalar-vs-AVX2 rows side by side.
 */
const char* kernelSuffix();

/** Shorthand: the active level dispatches AVX2 kernels. */
inline bool
avx2Active()
{
    return activeLevel() == Level::Avx2;
}

} // namespace smoothe::tensor::simd

#endif // SMOOTHE_TENSOR_SIMD_HPP
