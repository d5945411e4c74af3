/**
 * @file
 * Scalar <-> AVX2 kernel parity tests.
 *
 * The dispatch contract (src/tensor/simd.hpp) says every AVX2 kernel
 * except the segment-softmax exponential is bit-identical to its
 * generic counterpart; these tests enforce that with memcmp over
 * randomized shapes, including non-multiple-of-8 tails, empty CSR
 * rows, and empty segments. Softmax is compared with a documented ULP
 * tolerance instead. On hardware without AVX2 the parity tests skip
 * (there is no second variant to compare).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/matexp.hpp"
#include "autodiff/program.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ad = smoothe::ad;
namespace st = smoothe::tensor;
namespace simd = smoothe::tensor::simd;
namespace util = smoothe::util;

namespace {

/** Restores the process-wide SIMD level on scope exit. */
class LevelGuard
{
  public:
    LevelGuard() : saved_(simd::activeLevel()) {}
    ~LevelGuard() { simd::setLevel(saved_); }
    LevelGuard(const LevelGuard&) = delete;
    LevelGuard& operator=(const LevelGuard&) = delete;

  private:
    simd::Level saved_;
};

bool
avx2Available()
{
    return simd::detectedLevel() == simd::Level::Avx2;
}

st::Tensor
randomTensor(std::size_t rows, std::size_t cols, util::Rng& rng)
{
    st::Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    return t;
}

bool
bitEqual(const st::Tensor& a, const st::Tensor& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** ULP distance between two finite floats of the same sign regime. */
std::uint32_t
ulpDiff(float a, float b)
{
    std::int32_t ia;
    std::int32_t ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    if (ia < 0)
        ia = std::numeric_limits<std::int32_t>::min() - ia;
    if (ib < 0)
        ib = std::numeric_limits<std::int32_t>::min() - ib;
    const std::int64_t d =
        static_cast<std::int64_t>(ia) - static_cast<std::int64_t>(ib);
    return static_cast<std::uint32_t>(d < 0 ? -d : d);
}

/** Runs `body(out)` under both SIMD levels and returns the outputs. */
template <typename Body>
std::pair<st::Tensor, st::Tensor>
runBothLevels(std::size_t rows, std::size_t cols, Body&& body)
{
    LevelGuard guard;
    st::Tensor scalarOut(rows, cols);
    st::Tensor avxOut(rows, cols);
    simd::setLevel(simd::Level::Scalar);
    body(scalarOut);
    simd::setLevel(simd::Level::Avx2);
    body(avxOut);
    return {std::move(scalarOut), std::move(avxOut)};
}

/** Random segment index over `cols` items with some empty segments. */
st::SegmentIndex
randomSegments(std::size_t cols, std::size_t num_segments, util::Rng& rng)
{
    std::vector<std::uint32_t> assignment(cols);
    for (std::size_t i = 0; i < cols; ++i) {
        // Skew toward the low segments so the tail segments of the
        // index are often empty.
        const std::size_t s = rng.uniformIndex(num_segments);
        assignment[i] = static_cast<std::uint32_t>(
            s < num_segments / 2 ? s : rng.uniformIndex(num_segments));
    }
    return st::SegmentIndex::fromAssignment(assignment, num_segments);
}

const std::size_t kRowCounts[] = {1, 3, 8, 9, 17};
const std::size_t kColCounts[] = {1, 7, 8, 65, 1000};

} // namespace

TEST(SimdDispatch, SetLevelClampsToDetected)
{
    LevelGuard guard;
    simd::setLevel(simd::Level::Avx2);
    EXPECT_EQ(simd::activeLevel(), simd::detectedLevel());
    simd::setLevel(simd::Level::Scalar);
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    EXPECT_FALSE(simd::avx2Active());
    EXPECT_STREQ(simd::kernelSuffix(), "");
    if (avx2Available()) {
        simd::setLevel(simd::Level::Avx2);
        EXPECT_TRUE(simd::avx2Active());
        EXPECT_STREQ(simd::kernelSuffix(), "@avx2");
    }
}

TEST(SimdDispatch, LevelNamesAreStable)
{
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

namespace {

/**
 * Scalar-vs-AVX2 parity checks, one per kernel family. Each runs the
 * forward kernel of `op` at both SIMD levels over randomized shapes and
 * compares the outputs.
 */
using ParityCheck = void (*)(ad::Op op, util::Rng& rng);

/**
 * The forward kernel of elementwise `op`: `b` is the second variable
 * operand, `k` the constant one.
 */
void
elementwiseInto(ad::Op op, const st::Tensor& a, const st::Tensor& b,
                const st::Tensor& k, float alpha, st::Tensor& out)
{
    switch (op) {
      case ad::Op::Add:
        return st::addInto(a, b, out);
      case ad::Op::Sub:
        return st::subInto(a, b, out);
      case ad::Op::Mul:
        return st::mulInto(a, b, out);
      case ad::Op::Scale:
        return st::scaleInto(a, alpha, out);
      case ad::Op::AddScalar:
        return st::addScalarInto(a, alpha, out);
      case ad::Op::Relu:
        return st::reluInto(a, out);
      case ad::Op::MulConst:
        return st::mulConstInto(a, k, out);
      case ad::Op::AddConst:
        return st::addConstInto(a, k, out);
      default:
        ADD_FAILURE() << "not an elementwise op";
    }
}

void
checkElementwise(ad::Op op, util::Rng& rng)
{
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t cols : kColCounts) {
            const st::Tensor a = randomTensor(rows, cols, rng);
            const st::Tensor b = randomTensor(rows, cols, rng);
            const st::Tensor c = randomTensor(rows, cols, rng);
            const st::Tensor cRow = randomTensor(1, cols, rng);
            const float alpha = static_cast<float>(rng.uniform(-3.0, 3.0));
            // Ops that read the constant operand also run it
            // row-broadcast.
            const bool readsConst =
                op == ad::Op::MulConst || op == ad::Op::AddConst;
            for (const st::Tensor* k : {&c, &cRow}) {
                if (k == &cRow && !readsConst)
                    continue;
                auto [lhs, rhs] =
                    runBothLevels(rows, cols, [&](st::Tensor& out) {
                        elementwiseInto(op, a, b, *k, alpha, out);
                    });
                EXPECT_TRUE(bitEqual(lhs, rhs))
                    << rows << "x" << cols << (k == &cRow ? " bcast" : "");
            }
        }
    }
}

void
checkElemChain(ad::Op, util::Rng& rng)
{
    for (const std::size_t rows : kRowCounts) {
        // 2500 columns span several of the kernel's row blocks.
        for (const std::size_t cols : {9UL, 100UL, 1000UL, 2500UL}) {
            const st::Tensor a = randomTensor(rows, cols, rng);
            // Fusion emits runs of two or more stages.
            const std::size_t length = 2 + rng.uniformIndex(3);
            std::vector<st::ElemStage> stages;
            for (std::size_t s = 0; s < length; ++s) {
                st::ElemStage stage;
                switch (rng.uniformIndex(4)) {
                  case 0:
                    stage.kind = st::ElemStageKind::Scale;
                    stage.alpha =
                        static_cast<float>(rng.uniform(-2.0, 2.0));
                    break;
                  case 1:
                    stage.kind = st::ElemStageKind::AddScalar;
                    stage.alpha =
                        static_cast<float>(rng.uniform(-2.0, 2.0));
                    break;
                  case 2:
                    stage.kind = st::ElemStageKind::MulConst;
                    stage.c = randomTensor(
                        rng.bernoulli(0.5) ? 1 : rows, cols, rng);
                    break;
                  default:
                    stage.kind = st::ElemStageKind::AddConst;
                    stage.c = randomTensor(
                        rng.bernoulli(0.5) ? 1 : rows, cols, rng);
                    break;
                }
                stages.push_back(std::move(stage));
            }

            // Scalar level vs AVX2 level of the fused kernel.
            auto [lhs, rhs] = runBothLevels(rows, cols, [&](st::Tensor&
                                                                out) {
                st::elemChainInto(a, stages, out);
            });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << cols;

            // Fused vs the unfused kernel sequence (also bitwise: one
            // rounded op per stage either way).
            st::Tensor cur = a;
            st::Tensor next(rows, cols);
            for (const st::ElemStage& stage : stages) {
                switch (stage.kind) {
                  case st::ElemStageKind::Scale:
                    st::scaleInto(cur, stage.alpha, next);
                    break;
                  case st::ElemStageKind::AddScalar:
                    st::addScalarInto(cur, stage.alpha, next);
                    break;
                  case st::ElemStageKind::MulConst:
                    st::mulConstInto(cur, stage.c, next);
                    break;
                  case st::ElemStageKind::AddConst:
                    st::addConstInto(cur, stage.c, next);
                    break;
                }
                std::swap(cur, next);
            }
            EXPECT_TRUE(bitEqual(rhs, cur)) << rows << "x" << cols;

            // The backward kernel, at both levels and against the
            // unfused backward steps, each of which accumulates into a
            // freshly zeroed grad slot.
            const st::Tensor g = randomTensor(rows, cols, rng);
            const st::Tensor ga0 = randomTensor(rows, cols, rng);
            auto [gradLhs, gradRhs] =
                runBothLevels(rows, cols, [&](st::Tensor& ga) {
                    ga = ga0;
                    st::elemChainGradInto(g, stages, ga);
                });
            EXPECT_TRUE(bitEqual(gradLhs, gradRhs))
                << "grad " << rows << "x" << cols;
            st::Tensor unfused = ga0;
            for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t i = 0; i < cols; ++i) {
                    float v = g.at(r, i);
                    for (std::size_t s = stages.size(); s > 0; --s) {
                        const st::ElemStage& stage = stages[s - 1];
                        float dv = v; // add stages: identity Jacobian
                        if (stage.kind == st::ElemStageKind::Scale)
                            dv = stage.alpha * v;
                        else if (stage.kind == st::ElemStageKind::MulConst)
                            dv = v * stage.c.at(
                                         stage.c.rows() == 1 ? 0 : r, i);
                        v = 0.0f + dv;
                    }
                    unfused.at(r, i) += v;
                }
            }
            EXPECT_TRUE(bitEqual(gradRhs, unfused))
                << "grad " << rows << "x" << cols;
        }
    }
}

void
checkGatherCols(ad::Op, util::Rng& rng)
{
    for (const std::size_t rows : kRowCounts) {
        const std::size_t srcCols = 257;
        const st::Tensor a = randomTensor(rows, srcCols, rng);
        for (const std::size_t outCols : {1UL, 15UL, 64UL, 301UL}) {
            std::vector<std::uint32_t> index(outCols);
            for (std::uint32_t& v : index)
                v = static_cast<std::uint32_t>(
                    rng.uniformIndex(srcCols));
            auto [lhs, rhs] =
                runBothLevels(rows, outCols, [&](st::Tensor& out) {
                    st::gatherColsInto(a, index, out);
                });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << outCols;
        }
    }
}

void
checkProductComplement(ad::Op, util::Rng& rng)
{
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t cols : {16UL, 300UL}) {
            const std::size_t numSegments = cols / 3 + 2;
            const st::SegmentIndex segs =
                randomSegments(cols, numSegments, rng);
            const st::Tensor a = randomTensor(rows, cols, rng);
            auto [lhs, rhs] =
                runBothLevels(rows, numSegments, [&](st::Tensor& out) {
                    st::segmentProductComplementInto(a, segs, out);
                });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << cols;
        }
    }
}

/**
 * Segments shaped like SmoothE's parentIndex: items drawn with
 * replacement, so a column sits in several segments (and now and then
 * twice in one); about a fifth of the segments are empty and another
 * fifth hold a single item.
 */
st::SegmentIndex
overlappingSegments(std::size_t cols, std::size_t num_segments,
                    util::Rng& rng)
{
    st::SegmentIndex segs;
    segs.offsets.push_back(0);
    for (std::size_t s = 0; s < num_segments; ++s) {
        const double shape = rng.uniform(0.0, 1.0);
        const std::size_t len = shape < 0.2   ? 0
                                : shape < 0.4 ? 1
                                              : 2 + rng.uniformIndex(9);
        for (std::size_t e = 0; e < len; ++e)
            segs.items.push_back(
                static_cast<std::uint32_t>(rng.uniformIndex(cols)));
        // Column 0 joins every third segment.
        if (s % 3 == 0)
            segs.items.push_back(0);
        segs.offsets.push_back(
            static_cast<std::uint32_t>(segs.items.size()));
    }
    return segs;
}

void
checkProductComplementBackward(ad::Op, util::Rng& rng)
{
    // 17 leaves a remainder row on the scalar loop after two groups.
    for (const std::size_t rows : {1UL, 8UL, 9UL, 16UL, 17UL}) {
        for (const std::size_t cols : {5UL, 64UL, 300UL}) {
            const std::size_t numSegments = cols / 2 + 3;
            const st::SegmentIndex segs =
                overlappingSegments(cols, numSegments, rng);
            // Probabilities, with exact 1s (zero factors) and 0s.
            st::Tensor x(rows, cols);
            for (std::size_t i = 0; i < x.size(); ++i) {
                const double kind = rng.uniform(0.0, 1.0);
                x.data()[i] = kind < 0.1   ? 1.0f
                              : kind < 0.2 ? 0.0f
                                           : static_cast<float>(
                                                 rng.uniform(0.0, 1.0));
            }
            const st::Tensor g = randomTensor(rows, numSegments, rng);
            const st::Tensor ga0 = randomTensor(rows, cols, rng);
            const std::size_t planned =
                st::segmentProductComplementGradScratch(rows, cols, segs);
            auto [lhs, rhs] = runBothLevels(rows, cols, [&](st::Tensor&
                                                                ga) {
                ga = ga0;
                std::vector<float> scratch(planned);
                st::segmentProductComplementGradInto(x, segs, g, ga,
                                                     scratch);
                EXPECT_EQ(scratch.size(), planned)
                    << "the planned scratch was too small";
            });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << cols;
        }
    }
}

void
checkMaxGather(ad::Op, util::Rng& rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t cols : {5UL, 64UL, 300UL}) {
            const std::size_t numSegments = cols / 2 + 3;
            const st::SegmentIndex segs =
                overlappingSegments(cols, numSegments, rng);
            // Few distinct values so segments tie; -inf and NaN mixed in.
            st::Tensor a(rows, cols);
            for (std::size_t i = 0; i < a.size(); ++i) {
                const double kind = rng.uniform(0.0, 1.0);
                a.data()[i] = kind < 0.1   ? -inf
                              : kind < 0.2 ? nan
                                           : static_cast<float>(
                                                 rng.uniformIndex(4));
            }
            std::vector<std::uint32_t> args[2];
            int level = 0;
            auto [lhs, rhs] =
                runBothLevels(rows, numSegments, [&](st::Tensor& out) {
                    st::segmentMaxGatherInto(a, segs, out, args[level++]);
                });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << cols;
            EXPECT_EQ(args[0], args[1]) << rows << "x" << cols;
        }
    }
}

void
checkSoftmax(ad::Op, util::Rng& rng)
{
    // The AVX2 softmax uses a polynomial expf, so this is the one
    // kernel compared with a tolerance instead of memcmp. The bound is
    // generous relative to the few-ULP expf error because the
    // normalization divides two already-perturbed quantities.
    constexpr std::uint32_t kMaxUlp = 64;
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t cols : {24UL, 500UL}) {
            const std::size_t numSegments = cols / 4 + 1;
            const st::SegmentIndex segs =
                randomSegments(cols, numSegments, rng);
            const st::Tensor a = randomTensor(rows, cols, rng);
            auto [lhs, rhs] =
                runBothLevels(rows, cols, [&](st::Tensor& out) {
                    st::segmentSoftmaxInto(a, segs, out);
                });
            std::uint32_t worst = 0;
            for (std::size_t i = 0; i < lhs.size(); ++i)
                worst = std::max(
                    worst, ulpDiff(lhs.data()[i], rhs.data()[i]));
            EXPECT_LE(worst, kMaxUlp) << rows << "x" << cols;
        }
    }
}

/**
 * A SmoothE-shaped penalty matrix: nonnegative, about 10% nonzero,
 * rescaled so ||A||_inf lands in [2, 7] and the expm squarings run.
 */
std::vector<float>
sccShapedMatrix(std::size_t d, util::Rng& rng)
{
    std::vector<double> a(d * d, 0.0);
    for (double& v : a)
        if (rng.bernoulli(0.1))
            v = rng.uniform(0.0, 1.0);
    a[d - 1] = 1.0; // at least one nonzero, whatever the draws
    double norm = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
        double rowSum = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            rowSum += a[i * d + j];
        norm = std::max(norm, rowSum);
    }
    const double scale = rng.uniform(2.0, 7.0) / norm;
    std::vector<float> out(d * d);
    for (std::size_t i = 0; i < d * d; ++i)
        out[i] = static_cast<float>(a[i] * scale);
    return out;
}

/**
 * Runs ad::expm at both SIMD levels; the outputs must match bitwise.
 * Returns the squaring count.
 */
int
expectExpmBitIdentical(const std::vector<float>& a, std::size_t d)
{
    std::vector<float> scalarOut(d * d);
    std::vector<float> avxOut(d * d);
    LevelGuard guard;
    simd::setLevel(simd::Level::Scalar);
    const int scalarSquarings = ad::expm(a.data(), d, scalarOut.data());
    simd::setLevel(simd::Level::Avx2);
    const int avxSquarings = ad::expm(a.data(), d, avxOut.data());
    EXPECT_EQ(scalarSquarings, avxSquarings) << "d=" << d;
    EXPECT_EQ(std::memcmp(scalarOut.data(), avxOut.data(),
                          d * d * sizeof(float)),
              0)
        << "d=" << d;
    return avxSquarings;
}

void
checkMatrixExp(ad::Op, util::Rng& rng)
{
    // 17, 33 and 71 reach the 16-column panels and both of their tails.
    for (const std::size_t d : {1UL, 3UL, 5UL, 12UL, 17UL, 33UL, 71UL}) {
        std::vector<float> a(d * d);
        for (float& v : a)
            v = rng.bernoulli(0.3)
                    ? 0.0f
                    : static_cast<float>(rng.uniform(-0.5, 0.5));
        expectExpmBitIdentical(a, d);
    }
    for (const std::size_t d : {17UL, 33UL, 64UL, 71UL})
        EXPECT_GT(expectExpmBitIdentical(sccShapedMatrix(d, rng), d), 0)
            << "d=" << d;
}

/** The parity check covering `op`'s forward kernel, or nullptr. */
ParityCheck
parityCheckFor(ad::Op op)
{
    switch (op) {
      case ad::Op::Add:
      case ad::Op::Sub:
      case ad::Op::Mul:
      case ad::Op::Scale:
      case ad::Op::AddScalar:
      case ad::Op::Relu:
      case ad::Op::MulConst:
      case ad::Op::AddConst:
        return checkElementwise;
      case ad::Op::FusedElemChain:
        return checkElemChain;
      case ad::Op::GatherCols:
        return checkGatherCols;
      case ad::Op::SegmentProductComplement:
        return checkProductComplement;
      case ad::Op::SegmentMaxGather:
        return checkMaxGather;
      case ad::Op::SegmentSoftmax:
        return checkSoftmax;
      case ad::Op::TrExpm:
        return checkMatrixExp;
      default:
        return nullptr;
    }
}

/** The parity check covering `op`'s backward kernel, or nullptr. */
ParityCheck
backwardParityCheckFor(ad::Op op)
{
    switch (op) {
      case ad::Op::FusedElemChain:
        return checkElemChain; // also runs elemChainGradInto
      case ad::Op::SegmentProductComplement:
        return checkProductComplementBackward;
      default:
        return nullptr;
    }
}

/**
 * Every ad::Op enumerator. kernelName() names each one (its switch has
 * no default, so -Wswitch flags a missing enumerator) and returns
 * "unknown" past the last.
 */
std::vector<ad::Op>
allOps()
{
    std::vector<ad::Op> ops;
    for (std::uint8_t i = 0;
         std::strcmp(ad::kernelName(static_cast<ad::Op>(i)), "unknown");
         ++i)
        ops.push_back(static_cast<ad::Op>(i));
    return ops;
}

/** Runs `check` once for every op that `checkFor` maps to it. */
void
runParityChecks(ParityCheck check, std::uint64_t seed,
                ParityCheck (*checkFor)(ad::Op) = parityCheckFor)
{
    util::Rng rng(seed);
    std::size_t ran = 0;
    for (const ad::Op op : allOps()) {
        if (checkFor(op) != check)
            continue;
        SCOPED_TRACE(ad::kernelName(op));
        check(op, rng);
        ++ran;
    }
    EXPECT_GT(ran, 0u) << "no op maps to this parity check";
}

} // namespace

TEST(SimdParity, EveryDispatchedOpHasAParityCase)
{
    const std::vector<ad::Op> ops = allOps();
    ASSERT_GT(ops.size(), static_cast<std::size_t>(ad::Op::FusedElemChain));
    for (const ad::Op op : ops) {
        if (!ad::hasSimdVariant(op))
            continue;
        EXPECT_NE(parityCheckFor(op), nullptr)
            << "forward." << ad::kernelName(op)
            << " dispatches to AVX2 but has no parity case";
    }
}

TEST(SimdParity, EveryDispatchedBackwardHasAParityCase)
{
    std::size_t dispatched = 0;
    for (const ad::Op op : allOps()) {
        if (!ad::hasSimdBackward(op))
            continue;
        ++dispatched;
        EXPECT_NE(backwardParityCheckFor(op), nullptr)
            << "backward." << ad::kernelName(op)
            << " dispatches to AVX2 but has no parity case";
    }
    EXPECT_GT(dispatched, 0u);
}

TEST(SimdParity, ElementwiseKernelsAreBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkElementwise, 0xe1e3);
}

TEST(SimdParity, ReluHandlesNegativeZeroIdentically)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    st::Tensor a(1, 11);
    a.data()[0] = -0.0f;
    a.data()[1] = 0.0f;
    a.data()[2] = -1.5f;
    a.data()[3] = 1.5f;
    for (std::size_t i = 4; i < a.size(); ++i)
        a.data()[i] = (i % 2 ? 1.0f : -1.0f) * static_cast<float>(i);
    auto [lhs, rhs] = runBothLevels(1, 11, [&](st::Tensor& out) {
        st::reluInto(a, out);
    });
    EXPECT_TRUE(bitEqual(lhs, rhs));
}

TEST(SimdParity, ElemChainMatchesUnfusedSequenceBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkElemChain, 0xc4a1);
}

TEST(SimdParity, GatherColsIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkGatherCols, 0x6a7e);
}

TEST(SimdParity, SpmvIsBitIdenticalWithEmptyRows)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    util::Rng rng(0x59a7);
    for (const std::size_t batch : kRowCounts) {
        const std::size_t numRows = 97;
        const std::size_t numCols = 211;
        st::CsrMatrix m;
        m.numRows = numRows;
        m.numCols = numCols;
        m.rowOffsets.push_back(0);
        for (std::size_t i = 0; i < numRows; ++i) {
            // ~1 row in 4 is empty; others carry 1..12 entries.
            const std::size_t nnz =
                rng.bernoulli(0.25) ? 0 : 1 + rng.uniformIndex(12);
            for (std::size_t e = 0; e < nnz; ++e) {
                m.colIndices.push_back(static_cast<std::uint32_t>(
                    rng.uniformIndex(numCols)));
                m.values.push_back(
                    static_cast<float>(rng.uniform(-1.0, 1.0)));
            }
            m.rowOffsets.push_back(
                static_cast<std::uint32_t>(m.colIndices.size()));
        }
        const st::Tensor x = randomTensor(batch, numCols, rng);
        auto [lhs, rhs] =
            runBothLevels(batch, numRows, [&](st::Tensor& out) {
                st::spmv(m, x, out);
            });
        EXPECT_TRUE(bitEqual(lhs, rhs)) << "batch " << batch;

        // Transposed product through the CSC twin, same contract.
        const st::CscMatrix t = st::cscFromCsr(m);
        const st::Tensor y = randomTensor(batch, numRows, rng);
        auto [lhsT, rhsT] =
            runBothLevels(batch, numCols, [&](st::Tensor& out) {
                st::spmvT(t, y, out);
            });
        EXPECT_TRUE(bitEqual(lhsT, rhsT)) << "batch " << batch;
    }
}

TEST(SimdParity, SegmentProductComplementIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkProductComplement, 0x9c0d);
}

TEST(SimdParity, SegmentProductComplementBackwardIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkProductComplementBackward, 0xb4c6,
                    backwardParityCheckFor);
}

TEST(SimdParity, SegmentMaxGatherIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkMaxGather, 0x3a8d);
}

TEST(SimdParity, SegmentSoftmaxMatchesWithinUlpTolerance)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkSoftmax, 0x50f7);
}

TEST(SimdParity, MatrixExpIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkMatrixExp, 0xeff1);
}

TEST(SimdParity, MatexpDoubleKernelsAreBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    util::Rng rng(0xc5a);
    // d % 16 and d % 4 tails of every size, plus sub-panel widths.
    for (const std::size_t d :
         {1UL, 3UL, 4UL, 5UL, 15UL, 16UL, 17UL, 31UL, 33UL, 48UL, 71UL}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        const std::size_t n2 = d * d;
        // A: about 10% nonzero, every third row all zero (an empty CSR
        // row); B: dense signed.
        std::vector<double> a(n2, 0.0);
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t j = 0; j < d; ++j)
                if (i % 3 != 2 && rng.bernoulli(0.1))
                    a[i * d + j] = rng.uniform(-1.0, 1.0);
        std::vector<double> b(n2);
        for (double& v : b)
            v = rng.uniform(-2.0, 2.0);
        std::vector<std::uint32_t> rowOffsets(d + 1, 0);
        std::vector<std::uint32_t> cols;
        std::vector<double> values;
        for (std::size_t i = 0; i < d; ++i) {
            for (std::size_t j = 0; j < d; ++j) {
                if (a[i * d + j] != 0.0) {
                    cols.push_back(static_cast<std::uint32_t>(j));
                    values.push_back(a[i * d + j]);
                }
            }
            rowOffsets[i + 1] = static_cast<std::uint32_t>(cols.size());
        }

        LevelGuard guard;
        std::vector<double> dense[2];
        std::vector<double> sparse[2];
        std::vector<double> full[2];
        const simd::Level levels[2] = {simd::Level::Scalar,
                                       simd::Level::Avx2};
        for (int l = 0; l < 2; ++l) {
            simd::setLevel(levels[l]);
            dense[l].assign(n2, -1.0);
            sparse[l].assign(n2, -1.0);
            full[l].assign(n2, -1.0);
            ad::matmulSquare(a.data(), b.data(), dense[l].data(), d);
            ad::matmulCsrDense(rowOffsets.data(), cols.data(),
                               values.data(), b.data(), sparse[l].data(),
                               d);
            // A dense left operand (no zero skips) through the squaring.
            ad::matmulSquare(b.data(), b.data(), full[l].data(), d);
        }
        const std::size_t bytes = n2 * sizeof(double);
        EXPECT_EQ(std::memcmp(dense[0].data(), dense[1].data(), bytes), 0);
        EXPECT_EQ(std::memcmp(sparse[0].data(), sparse[1].data(), bytes),
                  0);
        EXPECT_EQ(std::memcmp(full[0].data(), full[1].data(), bytes), 0);
        // The CSR product adds exactly the zero-skip product's terms.
        EXPECT_EQ(std::memcmp(sparse[0].data(), dense[0].data(), bytes),
                  0);
    }
}

TEST(SparseLayout, CsrFromSegmentsAndCscTranspose)
{
    st::SegmentIndex segs;
    segs.offsets = {0, 2, 2, 5};
    segs.items = {1, 3, 0, 2, 3};
    const st::CsrMatrix m = st::csrFromSegments(segs, 4);
    EXPECT_EQ(m.numRows, 3u);
    EXPECT_EQ(m.numCols, 4u);
    EXPECT_EQ(m.nnz(), 5u);
    for (float v : m.values)
        EXPECT_EQ(v, 1.0f);

    // Dense reference product: row 0 sums items {1, 3}, row 1 is
    // empty, row 2 sums items {0, 2, 3}.
    st::Tensor x(2, 4);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i + 1);
    st::Tensor out(2, 3);
    st::spmv(m, x, out);
    EXPECT_FLOAT_EQ(out.at(0, 0), x.at(0, 1) + x.at(0, 3));
    EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(out.at(0, 2),
                    x.at(0, 0) + x.at(0, 2) + x.at(0, 3));
    EXPECT_FLOAT_EQ(out.at(1, 0), x.at(1, 1) + x.at(1, 3));

    const st::CscMatrix t = st::cscFromCsr(m);
    EXPECT_EQ(t.nnz(), m.nnz());
    // spmvT(y) must equal the dense transpose product.
    st::Tensor y(1, 3);
    y.data()[0] = 2.0f;
    y.data()[1] = 5.0f;
    y.data()[2] = -1.0f;
    st::Tensor outT(1, 4);
    st::spmvT(t, y, outT);
    EXPECT_FLOAT_EQ(outT.at(0, 0), -1.0f);        // column 0: row 2
    EXPECT_FLOAT_EQ(outT.at(0, 1), 2.0f);         // column 1: row 0
    EXPECT_FLOAT_EQ(outT.at(0, 2), -1.0f);        // column 2: row 2
    EXPECT_FLOAT_EQ(outT.at(0, 3), 2.0f + -1.0f); // column 3: rows 0,2
}

TEST(SparseLayout, SpmvMatchesDenseReference)
{
    // The kernels accumulate in float, the reference in double; they
    // agree to float tolerance at both SIMD levels.
    util::Rng rng(0xb0b1);
    st::SegmentIndex segs = randomSegments(50, 20, rng);
    const st::CsrMatrix m = st::csrFromSegments(segs, 50);
    const st::Tensor x = randomTensor(4, 50, rng);
    st::Tensor expected(4, 20);
    for (std::size_t b = 0; b < x.rows(); ++b) {
        for (std::size_t s = 0; s < segs.numSegments(); ++s) {
            double acc = 0.0;
            for (std::uint32_t e = segs.offsets[s]; e < segs.offsets[s + 1];
                 ++e)
                acc += x.at(b, segs.items[e]);
            expected.at(b, s) = static_cast<float>(acc);
        }
    }
    const auto [scalarOut, avxOut] = runBothLevels(
        4, 20, [&](st::Tensor& out) { st::spmv(m, x, out); });
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(scalarOut.data()[i], expected.data()[i], 1e-4f);
        EXPECT_NEAR(avxOut.data()[i], expected.data()[i], 1e-4f);
    }
}
