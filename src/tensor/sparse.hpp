/**
 * @file
 * Sparse matrix layouts and the batched propagation SpMV.
 *
 * CSR (row-compressed) carries the forward propagation product
 * out[b, i] = sum_j A[i, j] * x[b, j]; CSC (column-compressed) is its
 * transpose-friendly twin, giving the backward/transposed product
 * without re-walking the CSR structure. Both layouts build from the
 * e-graph's SegmentIndex adjacency (class -> member/parent lists), so
 * the propagation step's sparse structure is constructed once and
 * replayed every iteration.
 *
 * SpMV dispatches to a cross-seed AVX2 kernel (8 seed rows per lane
 * group, one strided gather per nonzero) when the CPU supports it;
 * per-lane accumulation order matches the generic loop exactly, so
 * scalar and AVX2 results are bit-identical. See DESIGN.md "SIMD
 * kernels".
 */

#ifndef SMOOTHE_TENSOR_SPARSE_HPP
#define SMOOTHE_TENSOR_SPARSE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace smoothe::tensor {

/** A CSR sparse matrix with float values. */
struct CsrMatrix
{
    std::size_t numRows = 0;
    std::size_t numCols = 0;
    std::vector<std::uint32_t> rowOffsets; ///< size numRows + 1
    std::vector<std::uint32_t> colIndices;
    std::vector<float> values;

    std::size_t nnz() const { return colIndices.size(); }
};

/** A CSC sparse matrix: column j owns rowIndices[colOffsets[j] ..
 *  colOffsets[j+1]). Built from a CsrMatrix for transposed products. */
struct CscMatrix
{
    std::size_t numRows = 0;
    std::size_t numCols = 0;
    std::vector<std::uint32_t> colOffsets; ///< size numCols + 1
    std::vector<std::uint32_t> rowIndices;
    std::vector<float> values;

    std::size_t nnz() const { return rowIndices.size(); }
};

/**
 * Builds the 0/1 incidence CSR of a SegmentIndex: row s has a 1.0
 * entry at every column in segment s. This is exactly the propagation
 * adjacency (e-class -> member/parent e-nodes) as a sparse matrix.
 */
CsrMatrix csrFromSegments(const SegmentIndex& segs, std::size_t num_cols);

/** Transposes a CSR matrix into CSC layout (counting sort; stable, so
 *  entries within a column stay in ascending row order). */
CscMatrix cscFromCsr(const CsrMatrix& a);

/**
 * Batched SpMV: out[b, i] = sum_j A[i, j] * x[b, j], accumulated in
 * float; cross-seed AVX2 when available.
 */
void spmv(const CsrMatrix& a, const Tensor& x, Tensor& out);

/**
 * Batched transposed SpMV via CSC: out[b, j] = sum_i A[i, j] * x[b, i]
 * — the adjoint of spmv, used for gradients flowing back through a
 * propagation product. Same bit-identity contract as spmv.
 */
void spmvT(const CscMatrix& a, const Tensor& x, Tensor& out);

} // namespace smoothe::tensor

#endif // SMOOTHE_TENSOR_SPARSE_HPP
