#include "tensor/sparse.hpp"

#include <algorithm>

#include "check/contracts.hpp"
#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::tensor {

namespace {

/**
 * Output rows handled per parallel task. Fixed (never derived from the
 * worker count) so the work partition — and therefore the float
 * result — is identical for every thread count.
 */
constexpr std::size_t kSpmvRowBlock = 512;

/**
 * The shared compressed-axis product both spmv (CSR) and spmvT (CSC)
 * lower to: out[b, i] = sum over entries e of compressed axis i of
 * values[e] * x[b, indices[e]].
 *
 * Float accumulation, parallel over (batch, row-block) pairs; with
 * AVX2 active and >= 8 batch rows, groups of 8 batch rows become the
 * SIMD lanes of one cross-seed kernel (per-lane accumulation order
 * matches the generic loop, so the variants are bit-identical).
 */
void
compressedProduct(const std::uint32_t* offsets,
                  const std::uint32_t* indices, const float* values,
                  std::size_t n_out, const Tensor& x, Tensor& out)
{
    const std::size_t batch = x.rows();

    const float* __restrict xv = x.data();
    float* __restrict ov = out.data();
    const std::size_t xCols = x.cols();
    const std::size_t oCols = out.cols();
    const std::size_t numBlocks =
        (n_out + kSpmvRowBlock - 1) / kSpmvRowBlock;
    const std::size_t groups =
        simd::avx2Active() ? batch / 8 : std::size_t{0};

    // Cross-seed AVX2: each task owns one (8-row seed group, row
    // block); every output element is written by exactly one task.
    if (groups > 0) {
        util::ThreadPool::global().parallelFor(
            0, groups * numBlocks, 1, [&](std::size_t task) {
                const std::size_t g = task / numBlocks;
                const std::size_t rowBegin =
                    (task % numBlocks) * kSpmvRowBlock;
                const std::size_t rowEnd =
                    std::min(n_out, rowBegin + kSpmvRowBlock);
                avx2::spmvRows8(offsets, indices, values, rowBegin,
                                rowEnd, xv + g * 8 * xCols, xCols,
                                ov + g * 8 * oCols, oCols);
            });
    }

    // Generic path: remaining batch rows (all of them when AVX2 is
    // off; the non-multiple-of-8 tail otherwise).
    const std::size_t remBegin = groups * 8;
    if (remBegin < batch) {
        util::ThreadPool::global().parallelFor(
            0, (batch - remBegin) * numBlocks, 1, [&](std::size_t task) {
                const std::size_t b = remBegin + task / numBlocks;
                const std::size_t rowBegin =
                    (task % numBlocks) * kSpmvRowBlock;
                const std::size_t rowEnd =
                    std::min(n_out, rowBegin + kSpmvRowBlock);
                const float* __restrict xRow = xv + b * xCols;
                float* __restrict oRow = ov + b * oCols;
                for (std::size_t i = rowBegin; i < rowEnd; ++i) {
                    float acc = 0.0f;
                    for (std::uint32_t e = offsets[i];
                         e < offsets[i + 1]; ++e)
                        acc += values[e] * xRow[indices[e]];
                    oRow[i] = acc;
                }
            });
    }
}

} // namespace

CsrMatrix
csrFromSegments(const SegmentIndex& segs, std::size_t num_cols)
{
    CsrMatrix m;
    m.numRows = segs.numSegments();
    m.numCols = num_cols;
    m.rowOffsets = segs.offsets;
    m.colIndices = segs.items;
    m.values.assign(segs.items.size(), 1.0f);
    return m;
}

CscMatrix
cscFromCsr(const CsrMatrix& a)
{
    CscMatrix t;
    t.numRows = a.numRows;
    t.numCols = a.numCols;
    t.colOffsets.assign(a.numCols + 1, 0);
    for (std::uint32_t col : a.colIndices)
        ++t.colOffsets[col + 1];
    for (std::size_t j = 0; j < a.numCols; ++j)
        t.colOffsets[j + 1] += t.colOffsets[j];
    t.rowIndices.resize(a.nnz());
    t.values.resize(a.nnz());
    std::vector<std::uint32_t> cursor(t.colOffsets.begin(),
                                      t.colOffsets.end() - 1);
    for (std::size_t i = 0; i < a.numRows; ++i) {
        for (std::uint32_t e = a.rowOffsets[i]; e < a.rowOffsets[i + 1];
             ++e) {
            const std::uint32_t dst = cursor[a.colIndices[e]]++;
            t.rowIndices[dst] = static_cast<std::uint32_t>(i);
            t.values[dst] = a.values[e];
        }
    }
    return t;
}

void
spmv(const CsrMatrix& a, const Tensor& x, Tensor& out)
{
    SMOOTHE_ASSERT(x.cols() == a.numCols, "spmv: %zu cols vs %zu matrix cols",
                   x.cols(), a.numCols);
    SMOOTHE_ASSERT(out.rows() == x.rows() && out.cols() == a.numRows,
                   "spmv: output %zux%zu for %zux%zu", out.rows(), out.cols(),
                   x.rows(), a.numRows);

    compressedProduct(a.rowOffsets.data(), a.colIndices.data(),
                      a.values.data(), a.numRows, x, out);
}

void
spmvT(const CscMatrix& a, const Tensor& x, Tensor& out)
{
    SMOOTHE_ASSERT(x.cols() == a.numRows,
                   "spmvT: %zu cols vs %zu matrix rows", x.cols(),
                   a.numRows);
    SMOOTHE_ASSERT(out.rows() == x.rows() && out.cols() == a.numCols,
                   "spmvT: output %zux%zu for %zux%zu", out.rows(),
                   out.cols(), x.rows(), a.numCols);

    compressedProduct(a.colOffsets.data(), a.rowIndices.data(),
                      a.values.data(), a.numCols, x, out);
}

} // namespace smoothe::tensor
