#include "autodiff/matexp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

void
matmulSquare(const double* a, const double* b, double* c, std::size_t d)
{
    if (tensor::simd::avx2Active()) {
        tensor::avx2::matmulSquare(a, b, c, d);
        return;
    }
    std::fill(c, c + d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t k = 0; k < d; ++k) {
            const double aik = a[i * d + k];
            if (aik == 0.0)
                continue;
            const double* bRow = b + k * d;
            double* cRow = c + i * d;
            for (std::size_t j = 0; j < d; ++j)
                cRow[j] += aik * bRow[j];
        }
    }
}

void
matmulCsrDense(const std::uint32_t* rowOffsets, const std::uint32_t* cols,
               const double* values, const double* b, double* c,
               std::size_t d)
{
    if (tensor::simd::avx2Active()) {
        tensor::avx2::matmulCsrDense(rowOffsets, cols, values, b, c, d);
        return;
    }
    std::fill(c, c + d * d, 0.0);
    for (std::size_t i = 0; i < d; ++i) {
        double* cRow = c + i * d;
        for (std::uint32_t e = rowOffsets[i]; e < rowOffsets[i + 1]; ++e) {
            const double aik = values[e];
            const double* bRow = b + cols[e] * d;
            for (std::size_t j = 0; j < d; ++j)
                cRow[j] += aik * bRow[j];
        }
    }
}

namespace {

double
infinityNorm(const double* a, std::size_t d)
{
    double best = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            rowSum += std::fabs(a[i * d + j]);
        best = std::max(best, rowSum);
    }
    return best;
}

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

    const std::size_t n2 = d * d;
    std::vector<double> scaled(a, a + n2);

    // Scaling: bring the norm under ~0.5 so the series converges fast.
    const double norm = infinityNorm(a, d);
    int squarings = 0;
    if (norm > 0.5) {
        squarings = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
        squarings = std::min(squarings, 60);
        const double factor = std::ldexp(1.0, -squarings);
        for (double& v : scaled)
            v *= factor;
    }

    // The scaled A in CSR form (row order, ascending columns, zeros
    // dropped): the penalty matrices are mostly zero, so each Taylor
    // product A^(k+1) = A * A^k touches only A's stored entries.
    std::vector<std::uint32_t> rowOffsets(d + 1, 0);
    std::vector<std::uint32_t> cols;
    std::vector<double> values;
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const double v = scaled[i * d + j];
            if (v == 0.0)
                continue;
            cols.push_back(static_cast<std::uint32_t>(j));
            values.push_back(v);
        }
        rowOffsets[i + 1] = static_cast<std::uint32_t>(cols.size());
    }

    // Taylor series: I + A + A^2/2! + ... (18 terms is ample at norm 0.5;
    // the tail is < 0.5^18/18! ~ 1e-21).
    std::vector<double> result(n2, 0.0);
    for (std::size_t i = 0; i < d; ++i)
        result[i * d + i] = 1.0;
    std::vector<double> power(scaled);
    std::vector<double> temp(n2);
    double factorial = 1.0;
    constexpr int kTerms = 18;
    for (int term = 1; term <= kTerms; ++term) {
        factorial *= term;
        const double inv = 1.0 / factorial;
        for (std::size_t i = 0; i < n2; ++i)
            result[i] += power[i] * inv;
        if (term < kTerms) {
            matmulCsrDense(rowOffsets.data(), cols.data(), values.data(),
                           power.data(), temp.data(), d);
            power.swap(temp);
        }
    }

    // Squaring: exp(A) = (exp(A / 2^s))^(2^s).
    for (int s = 0; s < squarings; ++s) {
        matmulSquare(result.data(), result.data(), temp.data(), d);
        result.swap(temp);
    }

    std::memcpy(out, result.data(), n2 * sizeof(double));
    return squarings;
}

int
expm(const float* a, std::size_t d, float* out)
{
    const std::size_t n2 = d * d;
    std::vector<double> input(n2);
    std::vector<double> output(n2);
    for (std::size_t i = 0; i < n2; ++i)
        input[i] = a[i];
    const int squarings = expmDouble(input.data(), d, output.data());
    for (std::size_t i = 0; i < n2; ++i)
        out[i] = static_cast<float>(output[i]);
    return squarings;
}

double
traceExpm(const float* a, std::size_t d)
{
    const std::size_t n2 = d * d;
    std::vector<double> input(n2);
    std::vector<double> output(n2);
    for (std::size_t i = 0; i < n2; ++i)
        input[i] = a[i];
    expmDouble(input.data(), d, output.data());
    double trace = 0.0;
    for (std::size_t i = 0; i < d; ++i)
        trace += output[i * d + i];
    return trace;
}

} // namespace smoothe::ad
