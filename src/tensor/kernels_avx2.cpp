/**
 * @file
 * AVX2 kernel bodies (see kernels_avx2.hpp for the bitwise contract).
 *
 * Every function is compiled with a per-function target("avx2")
 * attribute so this TU builds without -mavx2; the simd::avx2Active()
 * dispatch in the callers guarantees none of them run on hardware
 * without AVX2. No FMA intrinsics are used anywhere: the generic
 * kernels round every multiply and add separately (the build carries
 * no -mfma/-ffp-contract), and matching that rounding is what keeps
 * the two variants bit-identical.
 */

#include "tensor/kernels_avx2.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "check/contracts.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#define SMOOTHE_AVX2_FN __attribute__((target("avx2")))

namespace smoothe::tensor::avx2 {

namespace {

/**
 * 8-lane polynomial expf (Cephes-style range reduction, degree-5
 * polynomial). Accurate to a few ULP of std::exp over the range
 * segment softmax feeds it (inputs <= 0 after max subtraction); this
 * is the one place the AVX2 variant is not bitwise equal to scalar.
 */
SMOOTHE_AVX2_FN inline __m256
exp256(__m256 x)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647949f);
    const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
    const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
    const __m256 c1 = _mm256_set1_ps(0.693359375f);
    const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
    const __m256 one = _mm256_set1_ps(1.0f);

    x = _mm256_min_ps(x, hi);
    x = _mm256_max_ps(x, lo);

    // n = floor(x * log2(e) + 0.5)
    __m256 fx = _mm256_add_ps(_mm256_mul_ps(x, log2e),
                              _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);

    // r = x - n*ln2 (split-constant reduction)
    x = _mm256_sub_ps(x, _mm256_mul_ps(fx, c1));
    x = _mm256_sub_ps(x, _mm256_mul_ps(fx, c2));

    const __m256 z = _mm256_mul_ps(x, x);
    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_add_ps(_mm256_mul_ps(y, x),
                      _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_add_ps(_mm256_mul_ps(y, x),
                      _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_add_ps(_mm256_mul_ps(y, x),
                      _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_add_ps(_mm256_mul_ps(y, x),
                      _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_add_ps(_mm256_mul_ps(y, x),
                      _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_add_ps(_mm256_mul_ps(y, z), _mm256_add_ps(x, one));

    // y *= 2^n via exponent-field construction
    const __m256i n = _mm256_cvttps_epi32(fx);
    const __m256i pow2n = _mm256_slli_epi32(
        _mm256_add_epi32(n, _mm256_set1_epi32(0x7f)), 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2n));
}

/** Per-lane flat offsets {0, s, 2s, ..., 7s} for strided gathers. */
SMOOTHE_AVX2_FN inline __m256i
laneOffsets(std::size_t stride)
{
    return _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int>(stride)));
}

/**
 * Transposes the 8 x 8 float block whose row k starts at src + k *
 * src_stride into dst (row k at dst + k * dst_stride). Written out
 * register by register so it stays in registers at -O2.
 */
SMOOTHE_AVX2_FN inline void
transpose8x8(const float* src, std::size_t src_stride, float* dst,
             std::size_t dst_stride)
{
    const __m256 r0 = _mm256_loadu_ps(src);
    const __m256 r1 = _mm256_loadu_ps(src + src_stride);
    const __m256 r2 = _mm256_loadu_ps(src + 2 * src_stride);
    const __m256 r3 = _mm256_loadu_ps(src + 3 * src_stride);
    const __m256 r4 = _mm256_loadu_ps(src + 4 * src_stride);
    const __m256 r5 = _mm256_loadu_ps(src + 5 * src_stride);
    const __m256 r6 = _mm256_loadu_ps(src + 6 * src_stride);
    const __m256 r7 = _mm256_loadu_ps(src + 7 * src_stride);
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    _mm256_storeu_ps(dst, _mm256_permute2f128_ps(u0, u4, 0x20));
    _mm256_storeu_ps(dst + dst_stride, _mm256_permute2f128_ps(u1, u5, 0x20));
    _mm256_storeu_ps(dst + 2 * dst_stride,
                     _mm256_permute2f128_ps(u2, u6, 0x20));
    _mm256_storeu_ps(dst + 3 * dst_stride,
                     _mm256_permute2f128_ps(u3, u7, 0x20));
    _mm256_storeu_ps(dst + 4 * dst_stride,
                     _mm256_permute2f128_ps(u0, u4, 0x31));
    _mm256_storeu_ps(dst + 5 * dst_stride,
                     _mm256_permute2f128_ps(u1, u5, 0x31));
    _mm256_storeu_ps(dst + 6 * dst_stride,
                     _mm256_permute2f128_ps(u2, u6, 0x31));
    _mm256_storeu_ps(dst + 7 * dst_stride,
                     _mm256_permute2f128_ps(u3, u7, 0x31));
}

/** Lane-major copy of 8 rows of `cols` floats: out[c * 8 + l] =
 *  rows[l * cols + c]. */
SMOOTHE_AVX2_FN void
toLanes(const float* rows, std::size_t cols, float* out)
{
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8)
        transpose8x8(rows + c, cols, out + c * 8, 8);
    for (; c < cols; ++c)
        for (std::size_t l = 0; l < 8; ++l)
            out[c * 8 + l] = rows[l * cols + c];
}

/** Inverse of toLanes. */
SMOOTHE_AVX2_FN void
fromLanes(const float* lanes, std::size_t cols, float* rows)
{
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8)
        transpose8x8(lanes + c * 8, 8, rows + c, cols);
    for (; c < cols; ++c)
        for (std::size_t l = 0; l < 8; ++l)
            rows[l * cols + c] = lanes[c * 8 + l];
}

} // namespace

SMOOTHE_AVX2_FN void
addSpan(const float* a, const float* b, float* o, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] + b[i];
}

SMOOTHE_AVX2_FN void
subSpan(const float* a, const float* b, float* o, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] - b[i];
}

SMOOTHE_AVX2_FN void
mulSpan(const float* a, const float* b, float* o, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
    for (; i < n; ++i)
        o[i] = a[i] * b[i];
}

SMOOTHE_AVX2_FN void
scaleSpan(const float* a, float alpha, float* o, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i,
                         _mm256_mul_ps(va, _mm256_loadu_ps(a + i)));
    for (; i < n; ++i)
        o[i] = alpha * a[i];
}

SMOOTHE_AVX2_FN void
addScalarSpan(const float* a, float alpha, float* o, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i,
                         _mm256_add_ps(_mm256_loadu_ps(a + i), va));
    for (; i < n; ++i)
        o[i] = a[i] + alpha;
}

SMOOTHE_AVX2_FN void
reluSpan(const float* a, float* o, std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    // max_ps(v, 0) returns the second operand for -0.0 and NaN inputs,
    // matching the scalar `x > 0 ? x : 0` exactly.
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(o + i,
                         _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
    for (; i < n; ++i)
        o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

SMOOTHE_AVX2_FN void
gatherColsRow(const float* x, const std::uint32_t* index, float* o,
              std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(index + i));
        _mm256_storeu_ps(o + i, _mm256_i32gather_ps(x, idx, 4));
    }
    for (; i < n; ++i)
        o[i] = x[index[i]];
}

SMOOTHE_AVX2_FN void
spmvRows8(const std::uint32_t* row_offsets,
          const std::uint32_t* col_indices, const float* values,
          std::size_t row_begin, std::size_t row_end, const float* x,
          std::size_t x_stride, float* o, std::size_t o_stride)
{
    const __m256i lanes = laneOffsets(x_stride);
    alignas(32) float tmp[8];
    for (std::size_t i = row_begin; i < row_end; ++i) {
        __m256 acc = _mm256_setzero_ps();
        const std::uint32_t begin = row_offsets[i];
        const std::uint32_t end = row_offsets[i + 1];
        for (std::uint32_t e = begin; e < end; ++e) {
            const __m256i idx = _mm256_add_epi32(
                lanes,
                _mm256_set1_epi32(static_cast<int>(col_indices[e])));
            const __m256 vx = _mm256_i32gather_ps(x, idx, 4);
            acc = _mm256_add_ps(acc,
                                _mm256_mul_ps(_mm256_set1_ps(values[e]),
                                              vx));
        }
        _mm256_store_ps(tmp, acc);
        for (std::size_t l = 0; l < 8; ++l)
            o[l * o_stride + i] = tmp[l];
    }
}

SMOOTHE_AVX2_FN void
segmentSoftmax8(const float* x, float* o, std::size_t stride,
                const std::uint32_t* offsets, std::size_t num_segments,
                const std::uint32_t* items)
{
    const __m256i lanes = laneOffsets(stride);
    alignas(32) float tmp[8];
    std::vector<float> scratch; // per-segment exp values, [element][lane]
    for (std::size_t s = 0; s < num_segments; ++s) {
        const std::uint32_t begin = offsets[s];
        const std::uint32_t end = offsets[s + 1];
        if (begin == end)
            continue;
        const std::size_t len = end - begin;
        if (scratch.size() < len * 8)
            scratch.resize(len * 8);
        __m256 vmax =
            _mm256_set1_ps(-std::numeric_limits<float>::infinity());
        for (std::uint32_t e = begin; e < end; ++e) {
            const __m256i idx = _mm256_add_epi32(
                lanes, _mm256_set1_epi32(static_cast<int>(items[e])));
            vmax = _mm256_max_ps(vmax, _mm256_i32gather_ps(x, idx, 4));
        }
        __m256 vdenom = _mm256_setzero_ps();
        for (std::uint32_t e = begin; e < end; ++e) {
            const __m256i idx = _mm256_add_epi32(
                lanes, _mm256_set1_epi32(static_cast<int>(items[e])));
            const __m256 ev =
                exp256(_mm256_sub_ps(_mm256_i32gather_ps(x, idx, 4),
                                     vmax));
            _mm256_storeu_ps(scratch.data() + (e - begin) * 8, ev);
            vdenom = _mm256_add_ps(vdenom, ev);
        }
        const __m256 vinv = _mm256_div_ps(_mm256_set1_ps(1.0f), vdenom);
        for (std::uint32_t e = begin; e < end; ++e) {
            const __m256 ev =
                _mm256_loadu_ps(scratch.data() + (e - begin) * 8);
            _mm256_store_ps(tmp, _mm256_mul_ps(ev, vinv));
            float* dst = o + items[e];
            for (std::size_t l = 0; l < 8; ++l)
                dst[l * stride] = tmp[l];
        }
    }
}

SMOOTHE_AVX2_FN void
segmentProductComplement8(const float* x, std::size_t x_stride, float* o,
                          std::size_t o_stride,
                          const std::uint32_t* offsets,
                          std::size_t num_segments,
                          const std::uint32_t* items)
{
    const __m256i lanes = laneOffsets(x_stride);
    const __m256 one = _mm256_set1_ps(1.0f);
    alignas(32) float tmp[8];
    for (std::size_t s = 0; s < num_segments; ++s) {
        __m256 prod = one;
        for (std::uint32_t e = offsets[s]; e < offsets[s + 1]; ++e) {
            const __m256i idx = _mm256_add_epi32(
                lanes, _mm256_set1_epi32(static_cast<int>(items[e])));
            prod = _mm256_mul_ps(
                prod,
                _mm256_sub_ps(one, _mm256_i32gather_ps(x, idx, 4)));
        }
        _mm256_store_ps(tmp, prod);
        for (std::size_t l = 0; l < 8; ++l)
            o[l * o_stride + s] = tmp[l];
    }
}

SMOOTHE_AVX2_FN void
segmentMaxGather8(const float* x, std::size_t x_stride, float* o,
                  std::size_t o_stride, std::uint32_t* arg,
                  const std::uint32_t* offsets, std::size_t num_segments,
                  const std::uint32_t* items)
{
    const __m256i lanes = laneOffsets(x_stride);
    alignas(32) float best8[8];
    alignas(32) std::uint32_t arg8[8];
    for (std::size_t s = 0; s < num_segments; ++s) {
        const std::uint32_t begin = offsets[s];
        const std::uint32_t end = offsets[s + 1];
        if (begin == end) {
            for (std::size_t l = 0; l < 8; ++l)
                o[l * o_stride + s] = 0.0f;
            continue;
        }
        __m256 best =
            _mm256_set1_ps(-std::numeric_limits<float>::infinity());
        __m256i bestItem = _mm256_set1_epi32(static_cast<int>(items[begin]));
        for (std::uint32_t e = begin; e < end; ++e) {
            const __m256i item =
                _mm256_set1_epi32(static_cast<int>(items[e]));
            const __m256 v = _mm256_i32gather_ps(
                x, _mm256_add_epi32(lanes, item), 4);
            // Ordered greater-than: false for NaN, as the scalar v > best.
            const __m256 greater = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, v, greater);
            bestItem = _mm256_blendv_epi8(
                bestItem, item, _mm256_castps_si256(greater));
        }
        _mm256_store_ps(best8, best);
        _mm256_store_si256(reinterpret_cast<__m256i*>(arg8), bestItem);
        for (std::size_t l = 0; l < 8; ++l) {
            o[l * o_stride + s] = best8[l];
            arg[l * o_stride + s] = arg8[l];
        }
    }
}

SMOOTHE_AVX2_FN void
segmentProductComplementBackward8(const float* x, float* ga, std::size_t cols,
                                  const float* g,
                                  const std::uint32_t* offsets,
                                  std::size_t num_segments,
                                  const std::uint32_t* items,
                                  std::size_t longest, float* scratch)
{
    float* xLanes = scratch;
    float* gaLanes = xLanes + cols * 8;
    float* gLanes = gaLanes + cols * 8;
    float* prefix = gLanes + num_segments * 8;
    float* suffix = prefix + (longest + 1) * 8;
    toLanes(x, cols, xLanes);
    toLanes(ga, cols, gaLanes);
    toLanes(g, num_segments, gLanes);

    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 minusOne = _mm256_set1_ps(-1.0f);
    const __m256 signBit = _mm256_set1_ps(-0.0f);
    for (std::size_t s = 0; s < num_segments; ++s) {
        const std::uint32_t* seg = items + offsets[s];
        const std::size_t len = offsets[s + 1] - offsets[s];
        if (len == 0)
            continue;
        const __m256 gs = _mm256_loadu_ps(gLanes + s * 8);
        if (len == 1) {
            // pre[0] and suf[1] are 1, so the scalar factor is exactly
            // (-1.0f) * 1.0f; x does not enter.
            float* acc = gaLanes + std::size_t{seg[0]} * 8;
            _mm256_storeu_ps(acc, _mm256_add_ps(_mm256_loadu_ps(acc),
                                                _mm256_mul_ps(gs, minusOne)));
            continue;
        }
        // Prefix sweep; each factor (1 - x) is parked in suffix[e] and
        // replaced in place by the suffix sweep below.
        __m256 pre = one;
        _mm256_storeu_ps(prefix, pre);
        for (std::size_t e = 0; e < len; ++e) {
            const __m256 factor = _mm256_sub_ps(
                one, _mm256_loadu_ps(xLanes + std::size_t{seg[e]} * 8));
            _mm256_storeu_ps(suffix + e * 8, factor);
            pre = _mm256_mul_ps(pre, factor);
            _mm256_storeu_ps(prefix + (e + 1) * 8, pre);
        }
        __m256 suf = one;
        _mm256_storeu_ps(suffix + len * 8, suf);
        for (std::size_t e = len; e > 0; --e) {
            suf = _mm256_mul_ps(suf, _mm256_loadu_ps(suffix + (e - 1) * 8));
            _mm256_storeu_ps(suffix + (e - 1) * 8, suf);
        }
        // Ascending e, one read-modify-write per item, as the scalar
        // loop accumulates.
        for (std::size_t e = 0; e < len; ++e) {
            const __m256 others = _mm256_mul_ps(
                _mm256_xor_ps(_mm256_loadu_ps(prefix + e * 8), signBit),
                _mm256_loadu_ps(suffix + (e + 1) * 8));
            float* acc = gaLanes + std::size_t{seg[e]} * 8;
            _mm256_storeu_ps(acc, _mm256_add_ps(_mm256_loadu_ps(acc),
                                                _mm256_mul_ps(gs, others)));
        }
    }
    fromLanes(gaLanes, cols, ga);
}

SMOOTHE_AVX2_FN void
matmulSquare(const double* a, const double* b, double* c, std::size_t d)
{
    // One output row at a time: each 16-column panel lives in four
    // registers while k runs over the row (ascending, zero entries
    // skipped), so c is written once per element instead of once per k.
    for (std::size_t i = 0; i < d; ++i) {
        const double* aRow = a + i * d;
        double* cRow = c + i * d;
        std::size_t j = 0;
        for (; j + 16 <= d; j += 16) {
            __m256d acc0 = _mm256_setzero_pd();
            __m256d acc1 = _mm256_setzero_pd();
            __m256d acc2 = _mm256_setzero_pd();
            __m256d acc3 = _mm256_setzero_pd();
            for (std::size_t k = 0; k < d; ++k) {
                const double aik = aRow[k];
                if (aik == 0.0)
                    continue;
                const __m256d va = _mm256_set1_pd(aik);
                const double* bRow = b + k * d + j;
                acc0 = _mm256_add_pd(
                    acc0, _mm256_mul_pd(va, _mm256_loadu_pd(bRow)));
                acc1 = _mm256_add_pd(
                    acc1, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 4)));
                acc2 = _mm256_add_pd(
                    acc2, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 8)));
                acc3 = _mm256_add_pd(
                    acc3, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 12)));
            }
            _mm256_storeu_pd(cRow + j, acc0);
            _mm256_storeu_pd(cRow + j + 4, acc1);
            _mm256_storeu_pd(cRow + j + 8, acc2);
            _mm256_storeu_pd(cRow + j + 12, acc3);
        }
        for (; j + 4 <= d; j += 4) {
            __m256d acc = _mm256_setzero_pd();
            for (std::size_t k = 0; k < d; ++k) {
                const double aik = aRow[k];
                if (aik == 0.0)
                    continue;
                acc = _mm256_add_pd(
                    acc, _mm256_mul_pd(_mm256_set1_pd(aik),
                                       _mm256_loadu_pd(b + k * d + j)));
            }
            _mm256_storeu_pd(cRow + j, acc);
        }
        for (; j < d; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < d; ++k) {
                const double aik = aRow[k];
                if (aik != 0.0)
                    acc += aik * b[k * d + j];
            }
            cRow[j] = acc;
        }
    }
}

SMOOTHE_AVX2_FN void
matmulCsrDense(const std::uint32_t* row_offsets,
               const std::uint32_t* col_indices, const double* values,
               const double* b, double* c, std::size_t d)
{
    // Same panel blocking as matmulSquare, but k runs over the row's
    // stored entries only (no per-panel scan of a dense row).
    for (std::size_t i = 0; i < d; ++i) {
        const std::uint32_t begin = row_offsets[i];
        const std::uint32_t end = row_offsets[i + 1];
        double* cRow = c + i * d;
        std::size_t j = 0;
        for (; j + 16 <= d; j += 16) {
            __m256d acc0 = _mm256_setzero_pd();
            __m256d acc1 = _mm256_setzero_pd();
            __m256d acc2 = _mm256_setzero_pd();
            __m256d acc3 = _mm256_setzero_pd();
            for (std::uint32_t e = begin; e < end; ++e) {
                const __m256d va = _mm256_set1_pd(values[e]);
                const double* bRow = b + col_indices[e] * d + j;
                acc0 = _mm256_add_pd(
                    acc0, _mm256_mul_pd(va, _mm256_loadu_pd(bRow)));
                acc1 = _mm256_add_pd(
                    acc1, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 4)));
                acc2 = _mm256_add_pd(
                    acc2, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 8)));
                acc3 = _mm256_add_pd(
                    acc3, _mm256_mul_pd(va, _mm256_loadu_pd(bRow + 12)));
            }
            _mm256_storeu_pd(cRow + j, acc0);
            _mm256_storeu_pd(cRow + j + 4, acc1);
            _mm256_storeu_pd(cRow + j + 8, acc2);
            _mm256_storeu_pd(cRow + j + 12, acc3);
        }
        for (; j + 4 <= d; j += 4) {
            __m256d acc = _mm256_setzero_pd();
            for (std::uint32_t e = begin; e < end; ++e)
                acc = _mm256_add_pd(
                    acc,
                    _mm256_mul_pd(_mm256_set1_pd(values[e]),
                                  _mm256_loadu_pd(b + col_indices[e] * d +
                                                  j)));
            _mm256_storeu_pd(cRow + j, acc);
        }
        for (; j < d; ++j) {
            double acc = 0.0;
            for (std::uint32_t e = begin; e < end; ++e)
                acc += values[e] * b[col_indices[e] * d + j];
            cRow[j] = acc;
        }
    }
}

} // namespace smoothe::tensor::avx2

#else // !x86: dispatch never selects these; keep the symbols linkable.

namespace smoothe::tensor::avx2 {

namespace {
[[noreturn]] void
unreachable()
{
    SMOOTHE_ASSERT(false, "AVX2 kernel invoked on non-x86 hardware");
    std::abort();
}
} // namespace

void
addSpan(const float*, const float*, float*, std::size_t)
{
    unreachable();
}
void
subSpan(const float*, const float*, float*, std::size_t)
{
    unreachable();
}
void
mulSpan(const float*, const float*, float*, std::size_t)
{
    unreachable();
}
void
scaleSpan(const float*, float, float*, std::size_t)
{
    unreachable();
}
void
addScalarSpan(const float*, float, float*, std::size_t)
{
    unreachable();
}
void
reluSpan(const float*, float*, std::size_t)
{
    unreachable();
}
void
gatherColsRow(const float*, const std::uint32_t*, float*, std::size_t)
{
    unreachable();
}
void
spmvRows8(const std::uint32_t*, const std::uint32_t*, const float*,
          std::size_t, std::size_t, const float*, std::size_t, float*,
          std::size_t)
{
    unreachable();
}
void
segmentSoftmax8(const float*, float*, std::size_t, const std::uint32_t*,
                std::size_t, const std::uint32_t*)
{
    unreachable();
}
void
segmentProductComplement8(const float*, std::size_t, float*, std::size_t,
                          const std::uint32_t*, std::size_t,
                          const std::uint32_t*)
{
    unreachable();
}
void
segmentMaxGather8(const float*, std::size_t, float*, std::size_t,
                  std::uint32_t*, const std::uint32_t*, std::size_t,
                  const std::uint32_t*)
{
    unreachable();
}
void
segmentProductComplementBackward8(const float*, float*, std::size_t,
                                  const float*, const std::uint32_t*,
                                  std::size_t, const std::uint32_t*,
                                  std::size_t, float*)
{
    unreachable();
}
void
matmulSquare(const double*, const double*, double*, std::size_t)
{
    unreachable();
}
void
matmulCsrDense(const std::uint32_t*, const std::uint32_t*, const double*,
               const double*, double*, std::size_t)
{
    unreachable();
}

} // namespace smoothe::tensor::avx2

#endif
