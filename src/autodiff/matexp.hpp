/**
 * @file
 * Dense matrix exponential by scaling and squaring (double-precision
 * internals).
 *
 * expmDouble scales A by 2^-s so that ||A||_inf <= 0.5, sums the
 * degree-18 Taylor series there, and squares the result s times. The
 * series terms are formed as A^(k+1) = A * A^k with A held in CSR form,
 * so each product costs 2 * nnz(A) * d flops instead of 2 * d^3 (the
 * SmoothE penalty matrices are about 10% nonzero); only the s squarings
 * are dense d^3 products.
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
 * @return the number of squarings performed
 */
int expm(const float* a, std::size_t d, float* out);

/** Double-precision variant of expm(); returns the squaring count. */
int expmDouble(const double* a, std::size_t d, double* out);

/**
 * c = a * b for row-major d x d doubles: ikj order, zero a[i][k]
 * skipped, mul and add separately rounded. Runs the register-blocked
 * AVX2 variant when simd::avx2Active(); both are bitwise identical.
 */
void matmulSquare(const double* a, const double* b, double* c,
                  std::size_t d);

/**
 * c = A * b where A is d x d in CSR form (rowOffsets has d + 1 entries,
 * columns ascending within a row) and b, c are row-major dense. Adds
 * the same terms in the same order as matmulSquare on the dense A, so
 * the two agree bitwise; AVX2-dispatched like matmulSquare.
 */
void matmulCsrDense(const std::uint32_t* rowOffsets,
                    const std::uint32_t* cols, const double* values,
                    const double* b, double* c, std::size_t d);

/** Convenience: tr(exp(a)) for a row-major d x d matrix. */
double traceExpm(const float* a, std::size_t d);

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_MATEXP_HPP
