/**
 * @file
 * Explicit AVX2 kernel variants of the tensor kernels.
 *
 * These are the raw-span bodies the dispatching kernels in
 * src/tensor/kernels.cpp call when simd::avx2Active(); each definition
 * in kernels_avx2.cpp carries a per-function `target("avx2")` attribute
 * so the default build needs no -mavx2 flag, and the cpuid-gated
 * dispatch guarantees they never execute on hardware without AVX2.
 *
 * Bitwise contract: every function here performs exactly the rounded
 * float operations of its generic counterpart, in the same per-element
 * (or per-lane) order, with loop tails handled by the identical scalar
 * code — so scalar and AVX2 results are bit-identical. The one
 * documented exception is segmentSoftmax8, whose 8-lane polynomial
 * exponential differs from std::exp by a few ULP (the scalar<->AVX2
 * parity tests compare it with a tolerance; see DESIGN.md "SIMD
 * kernels").
 *
 * The cross-seed kernels (segmentSoftmax8, segmentProductComplement8,
 * its backward segmentProductComplementBackward8, and segmentMaxGather8)
 * realize the seed-batch batching: the B seed rows become the SIMD lane
 * dimension, so one pass over the sparse structure serves 8 seeds
 * instead of replaying it per seed. Each 8-row group writes only its
 * own rows, so the results do not depend on how groups are spread over
 * threads.
 */

#ifndef SMOOTHE_TENSOR_KERNELS_AVX2_HPP
#define SMOOTHE_TENSOR_KERNELS_AVX2_HPP

#include <cstddef>
#include <cstdint>

namespace smoothe::tensor::avx2 {

/** o[i] = a[i] + b[i]. */
void addSpan(const float* a, const float* b, float* o, std::size_t n);
/** o[i] = a[i] * b[i]. */
void mulSpan(const float* a, const float* b, float* o, std::size_t n);
/** o[i] = alpha * a[i]. */
void scaleSpan(const float* a, float alpha, float* o, std::size_t n);
/** o[i] = a[i] + alpha. */
void addScalarSpan(const float* a, float alpha, float* o, std::size_t n);
/** o[i] = max(a[i], 0). */
void reluSpan(const float* a, float* o, std::size_t n);
/** o[i] = x[index[i]] for one row (8-wide index gathers). */
void gatherColsRow(const float* x, const std::uint32_t* index, float* o,
                   std::size_t n);

/**
 * Cross-seed segment softmax over 8 consecutive batch rows. Uses a
 * polynomial expf (few-ULP difference vs std::exp); max, denominator,
 * and normalization follow the scalar order per lane.
 */
void segmentSoftmax8(const float* x, float* o, std::size_t stride,
                     const std::uint32_t* offsets,
                     std::size_t num_segments,
                     const std::uint32_t* items);

/** Cross-seed segment product-complement over 8 consecutive batch
 *  rows: o[l * o_stride + s] = prod_{e in segment s} (1 - x[l][item]).
 */
void segmentProductComplement8(const float* x, std::size_t x_stride,
                               float* o, std::size_t o_stride,
                               const std::uint32_t* offsets,
                               std::size_t num_segments,
                               const std::uint32_t* items);

/**
 * Cross-seed segment max over 8 consecutive batch rows: o[l * o_stride
 * + s] = max over segment s of x[l][item], arg[l * o_stride + s] = the
 * first item reaching it (items scanned in order, an item replacing
 * the best only when strictly greater, so NaN never wins and ties keep
 * the earlier item). Empty segments write o = 0 and leave arg alone.
 * Only compares and blends: bitwise equal to the scalar loop in
 * tensor::segmentMaxGatherInto.
 */
void segmentMaxGather8(const float* x, std::size_t x_stride, float* o,
                       std::size_t o_stride, std::uint32_t* arg,
                       const std::uint32_t* offsets,
                       std::size_t num_segments,
                       const std::uint32_t* items);

/**
 * Backward of segmentProductComplement8 over the same 8 rows of x and
 * ga (both `cols` wide) and of g (num_segments wide): for each segment
 * s and its e-th item (ascending), ga[l][item] += g[l][s] * (-pre[e] *
 * suf[e + 1]), where pre/suf are lane l's prefix and suffix products
 * of (1 - x[l][item]). x, ga and g are first copied lane-major (8
 * floats per column) so every access is one vector load or store
 * rather than a gather and 8 scalar stores; ga is copied back at the
 * end. Single-item segments skip the products (their factor is exactly
 * -1). `scratch` holds segmentProductComplementBackward8Scratch()
 * floats, `longest` being the largest segment size; it is caller-owned
 * so nothing is allocated per call. Products, the negation and the
 * accumulation round exactly as the scalar loop in
 * tensor::segmentProductComplementGradInto does, lane by lane.
 */
void segmentProductComplementBackward8(const float* x, float* ga,
                                       std::size_t cols, const float* g,
                                       const std::uint32_t* offsets,
                                       std::size_t num_segments,
                                       const std::uint32_t* items,
                                       std::size_t longest, float* scratch);

/** Scratch floats of segmentProductComplementBackward8: lane-major x,
 *  ga and g, then the prefix and suffix products. */
inline std::size_t
segmentProductComplementBackward8Scratch(std::size_t cols,
                                         std::size_t num_segments,
                                         std::size_t longest)
{
    return (2 * cols + num_segments + 2 * (longest + 1)) * 8;
}

/**
 * c = a * b for row-major d x d doubles, register-blocked: one output
 * row at a time in 16-column panels held in four accumulators, k
 * ascending with zero a[i][k] skipped. Each c[i][j] sums the same
 * separately rounded products in the same order as ad::matmulSquare's
 * scalar ikj loop, so the two are bitwise identical.
 */
void matmulSquare(const double* a, const double* b, double* c,
                  std::size_t d);

/**
 * c = A * b where A is d x d in CSR form (row_offsets has d + 1
 * entries; each row's columns ascend) and b, c are row-major dense.
 * Same 16-column register panels as matmulSquare, k running over the
 * row's stored entries; bitwise identical to ad::matmulCsrDense.
 */
void matmulCsrDense(const std::uint32_t* row_offsets,
                    const std::uint32_t* col_indices, const double* values,
                    const double* b, double* c, std::size_t d);

} // namespace smoothe::tensor::avx2

#endif // SMOOTHE_TENSOR_KERNELS_AVX2_HPP
