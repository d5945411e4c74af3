#include "autodiff/matexp.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

void
taylorTermStep(const std::uint32_t* rowOffsets, const std::uint32_t* cols,
               const double* values, const double* b, double s, double* c,
               double* out, std::size_t d)
{
    if (tensor::simd::avx2Active()) {
        tensor::avx2::taylorTermStep(rowOffsets, cols, values, b, s, c, out,
                                     d);
        return;
    }
    for (std::size_t i = 0; i < d; ++i) {
        double* cRow = c + i * d;
        double* outRow = out + i * d;
        std::fill(cRow, cRow + d, 0.0);
        for (std::uint32_t e = rowOffsets[i]; e < rowOffsets[i + 1]; ++e) {
            const double aik = values[e];
            const double* bRow = b + cols[e] * d;
            for (std::size_t j = 0; j < d; ++j)
                cRow[j] += aik * bRow[j];
        }
        for (std::size_t j = 0; j < d; ++j) {
            cRow[j] *= s;
            outRow[j] += cRow[j];
        }
    }
}

namespace {

/**
 * Degree cap. The remainder bound falls under 2^-53 before it for every
 * ||A||_inf up to about 270, and SmoothE's norms are at most a node's
 * child count; in practice only an infinite norm runs into it.
 */
constexpr int kMaxDegree = 1024;

} // namespace

int
expmDouble(const double* a, std::size_t d, double* out)
{
    if (d == 0)
        return 0;
    if (d == 1) {
        out[0] = std::exp(a[0]);
        return 0;
    }

    // A in CSR form (row order, ascending columns, zeros dropped): the
    // penalty matrices are mostly zero, so each product A * term touches
    // only A's stored entries. ||A||_inf comes from the same pass.
    std::vector<std::uint32_t> rowOffsets(d + 1, 0);
    std::vector<std::uint32_t> cols;
    std::vector<double> values;
    double norm = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < d; ++j) {
            const double v = a[i * d + j];
            if (v == 0.0)
                continue;
            cols.push_back(static_cast<std::uint32_t>(j));
            values.push_back(v);
            rowSum += std::fabs(v);
        }
        rowOffsets[i + 1] = static_cast<std::uint32_t>(cols.size());
        norm = std::max(norm, rowSum);
    }

    // Degree, chosen before summing: the smallest m whose remainder
    // bound ||A||^(m+1) / (m+1)! * e^||A|| is at most 2^-53, walked in
    // logs so nothing overflows (A = 0 has log bound -inf, so m = 0).
    const double logTolerance = -53.0 * std::log(2.0);
    double logBound = std::log(norm) + norm;
    int degree = 0;
    while (logBound > logTolerance && degree < kMaxDegree) {
        ++degree;
        logBound += std::log(norm / (degree + 1));
    }

    // out = I + A, then each term A^k / k! = A * (A^(k-1) / (k-1)!) / k
    // is formed and added to it in one pass.
    const std::size_t n2 = d * d;
    std::vector<double> term(a, a + n2);
    std::vector<double> next(n2);
    std::copy(a, a + n2, out);
    for (std::size_t i = 0; i < d; ++i)
        out[i * d + i] += 1.0;
    for (int k = 2; k <= degree; ++k) {
        taylorTermStep(rowOffsets.data(), cols.data(), values.data(),
                       term.data(), 1.0 / k, next.data(), out, d);
        term.swap(next);
    }
    return degree;
}

int
expm(const float* a, std::size_t d, float* out)
{
    const std::size_t n2 = d * d;
    std::vector<double> input(n2);
    std::vector<double> output(n2);
    for (std::size_t i = 0; i < n2; ++i)
        input[i] = a[i];
    const int degree = expmDouble(input.data(), d, output.data());
    for (std::size_t i = 0; i < n2; ++i)
        out[i] = static_cast<float>(output[i]);
    return degree;
}

} // namespace smoothe::ad
