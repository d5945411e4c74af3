/**
 * @file
 * Matrix exponential by one unscaled Taylor sum over a sparse A
 * (double-precision internals).
 *
 * expmDouble reads ||A||_inf, picks the degree m a priori as the
 * smallest with ||A||^(m+1) / (m+1)! * e^||A|| <= 2^-53 (the remainder
 * bound of the series), and sums I + A + A^2/2! + ... + A^m/m!. Each
 * term is formed as A^k/k! = A * (A^(k-1)/(k-1)!) / k with A held in
 * CSR form, in one pass (taylorTermStep) that also scales the product
 * by 1/k and adds it to the sum, so a term costs 2 * nnz(A) * d flops
 * plus 2 * d^2; there is no scaling and no dense d^3 product.
 *
 * Accuracy is pinned for nonnegative A, which is everything the
 * NOTEARS penalty feeds it: A scatters per-class softmax probabilities,
 * so every series term is nonnegative and the sum has no cancellation,
 * and ||A||_inf is at most the largest number of distinct in-SCC
 * children of one node. Signed inputs are summed the same way; their
 * error grows with the cancellation in the series.
 *
 * Used by the NOTEARS acyclicity penalty h(A) = tr(exp(A)) - d
 * (Section 3.4). The autodiff tape exposes tr(exp(A)) as a primitive whose
 * exact gradient is exp(A)^T, so only the forward evaluation lives here.
 */

#ifndef SMOOTHE_AUTODIFF_MATEXP_HPP
#define SMOOTHE_AUTODIFF_MATEXP_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smoothe::ad {

/**
 * Computes out = exp(a) for a dense row-major d x d matrix.
 * Internals run in double precision; inputs/outputs are float.
 * @return the Taylor degree m summed
 */
int expm(const float* a, std::size_t d, float* out);

/** Double-precision variant of expm(); returns the Taylor degree. */
int expmDouble(const double* a, std::size_t d, double* out);

/**
 * One Taylor term step: c = (A * b) * s, then out += c, where A is
 * d x d in CSR form (rowOffsets has d + 1 entries, columns ascending
 * within a row) and b, c, out are row-major dense. Per element: the
 * product sum in ikj order over A's stored entries from +0, mul and add
 * rounded separately, then * s, then out + c. Runs the register-blocked
 * AVX2 variant when simd::avx2Active(); both are bitwise identical.
 */
void taylorTermStep(const std::uint32_t* rowOffsets,
                    const std::uint32_t* cols, const double* values,
                    const double* b, double s, double* c, double* out,
                    std::size_t d);

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_MATEXP_HPP
