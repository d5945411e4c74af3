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
 * The cross-seed kernels (segmentSoftmax8 and the propagation pair
 * propagateForward8/propagateBackward8) realize the seed-batch
 * batching: the B seed rows become the SIMD lane dimension, so one pass
 * over the sparse structure serves 8 seeds instead of replaying it per
 * seed. Each 8-row group writes only its own rows, so the results do
 * not depend on how groups are spread over threads.
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
/** o[i] += alpha * a[i], the multiply and the add rounded apart. */
void scaleAccumulateSpan(const float* a, float alpha, float* o,
                         std::size_t n);
/** o[i] += a[i] * b[i], the multiply and the add rounded apart. */
void mulAccumulateSpan(const float* a, const float* b, float* o,
                       std::size_t n);
/** o[i] = max(a[i], 0). */
void reluSpan(const float* a, float* o, std::size_t n);
/**
 * Cross-seed segment softmax over 8 consecutive batch rows. Uses a
 * polynomial expf (few-ULP difference vs std::exp); max, denominator,
 * and normalization follow the scalar order per lane.
 */
void segmentSoftmax8(const float* x, float* o, std::size_t stride,
                     const std::uint32_t* offsets,
                     std::size_t num_segments,
                     const std::uint32_t* items);

/**
 * One seed group's share of phi's propagation (tensor::propagateInto):
 * the structure, and the group's slices of the saved state and scratch,
 * both in seed-lane layout (element k of lane l at k * lanes + l).
 */
struct PropagateLanes
{
    const std::uint32_t* node2class; ///< node -> class
    std::size_t nodes;
    const std::uint32_t* offsets; ///< class -> parents, CSR offsets
    const std::uint32_t* items;   ///< parent nodes
    std::size_t classes;
    std::size_t longest; ///< largest parent count
    std::uint32_t root;
    std::size_t rounds;
    bool product; ///< combines 1 - prod(1 - p) (Independent, Hybrid)
    bool max;     ///< combines max(p) (Correlated, Hybrid)
    /** q of round t at t * classes * lanes; under `max`, the argmax
     *  position within each parent list (-1 when empty) of round t at
     *  (rounds + t) * classes * lanes. */
    float* saved;
    /** propagateScratchPerLane() floats per lane, split into the
     *  regions of PropagateScratch. */
    float* scratch;
};

/**
 * A propagation group's scratch regions, each in seed-lane layout: cp,
 * p, dL/dp and dL/dcp (nodes each), the root one-hot q0 and dL/dq
 * (classes each), then prefix and suffix products (longest + 1 each).
 * Each region is followed by 2 floats per lane of padding, so two
 * regions are never a multiple of 4 KiB apart for 8 lanes: a load
 * from one region then never waits on a store to the same index of
 * another (4K aliasing), whatever the node count.
 */
struct PropagateScratch
{
    float* cp;
    float* p;
    float* gp;
    float* gcp;
    float* q0;
    float* gq;
    float* prefix;
    float* suffix;

    PropagateScratch(const PropagateLanes& group, std::size_t lanes)
    {
        float* next = group.scratch;
        const auto take = [&](std::size_t count) {
            float* region = next;
            next += (count + 2) * lanes;
            return region;
        };
        cp = take(group.nodes);
        p = take(group.nodes);
        gp = take(group.nodes);
        gcp = take(group.nodes);
        q0 = take(group.classes);
        gq = take(group.classes);
        prefix = take(group.longest + 1);
        suffix = take(group.longest + 1);
    }
};

/** Scratch floats per seed lane of a propagation group: the eight
 *  PropagateScratch regions with their padding. */
inline std::size_t
propagateScratchPerLane(std::size_t nodes, std::size_t classes,
                        std::size_t longest)
{
    return 4 * nodes + 2 * classes + 2 * (longest + 1) + 8 * 2;
}

/**
 * Forward of one 8-seed group: cp and p are its 8 rows (row stride
 * `nodes`). Per lane, the same rounded operations in the same order as
 * the generic lane loop in tensor::propagateInto, so bitwise equal.
 */
void propagateForward8(const PropagateLanes& group, const float* cp,
                       float* p);

/**
 * Backward of one 8-seed group: gcp (8 rows) += dL/dcp given g = dL/dp
 * (8 rows), from the group's saved q and argmax. Same rounded
 * operations and accumulation order as tensor::propagateGradInto's
 * generic lane loop.
 */
void propagateBackward8(const PropagateLanes& group, const float* cp,
                        const float* g, float* gcp);

/**
 * One Taylor term step of ad::expmDouble: c = (A * b) * s, then
 * out += c, where A is d x d in CSR form (row_offsets has d + 1
 * entries; each row's columns ascend) and b, c, out are row-major
 * dense. Register-blocked: one output row at a time in 16-column panels
 * held in four accumulators, k running over the row's stored entries;
 * each panel is scaled, stored to c and added into out while still in
 * registers. Each c[i][j] sums the same separately rounded products in
 * the same order as ad::taylorTermStep's scalar loop, starting from +0,
 * then takes the same * s and out + c, so the two are bitwise identical.
 */
void taylorTermStep(const std::uint32_t* row_offsets,
                    const std::uint32_t* col_indices, const double* values,
                    const double* b, double s, double* c, double* out,
                    std::size_t d);

/** The scalars of one ad::Adam step. */
struct AdamCoeffs
{
    float beta1;
    float beta2;
    float lr;
    float epsilon;
    float correction1; ///< 1 - beta1^t
    float correction2; ///< 1 - beta2^t
};

/**
 * One Adam step over n parameters w with gradients g and moments m, v:
 * m = beta1 m + (1 - beta1) g, v = beta2 v + ((1 - beta2) g) g, then
 * w -= (lr (m / c1)) / (sqrt(v / c2) + eps). Every multiply, add,
 * divide and square root is rounded apart, in the order of
 * ad::Adam::step's scalar loop, so the two are bitwise identical.
 */
void adamStep(const AdamCoeffs& k, const float* g, float* w, float* m,
              float* v, std::size_t n);

} // namespace smoothe::tensor::avx2

#endif // SMOOTHE_TENSOR_KERNELS_AVX2_HPP
