/**
 * @file
 * Scalar <-> AVX2 kernel parity tests.
 *
 * The dispatch contract (src/tensor/simd.hpp) says every AVX2 kernel
 * except the segment-softmax exponential is bit-identical to its
 * generic counterpart; these tests enforce that with memcmp over
 * randomized shapes, including non-multiple-of-8 tails, empty CSR
 * rows, empty segments, and parents that tie. Softmax is compared with a documented ULP
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

#include "autodiff/adam.hpp"
#include "autodiff/matexp.hpp"
#include "autodiff/program.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
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

/** The forward kernel of elementwise `op` (`b` is read by Add/Mul). */
void
elementwiseInto(ad::Op op, const st::Tensor& a, const st::Tensor& b,
                st::Tensor& out)
{
    switch (op) {
      case ad::Op::Add:
        return st::addInto(a, b, out);
      case ad::Op::Mul:
        return st::mulInto(a, b, out);
      case ad::Op::Relu:
        return st::reluInto(a, out);
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
            auto [lhs, rhs] = runBothLevels(rows, cols, [&](st::Tensor& out) {
                elementwiseInto(op, a, b, out);
            });
            EXPECT_TRUE(bitEqual(lhs, rhs)) << rows << "x" << cols;
        }
    }
}

void
checkElemChain(ad::Op, util::Rng& rng)
{
    constexpr st::ElemStageKind kKinds[] = {
        st::ElemStageKind::Scale, st::ElemStageKind::AddScalar,
        st::ElemStageKind::MulConst, st::ElemStageKind::AddConst};
    for (const st::ElemStageKind kind : kKinds) {
        for (const std::size_t rows : kRowCounts) {
            for (const std::size_t cols : {9UL, 100UL, 1000UL, 2500UL}) {
                SCOPED_TRACE(std::to_string(static_cast<int>(kind)) + " " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols));
                const st::Tensor a = randomTensor(rows, cols, rng);
                st::ElemStage stage;
                stage.kind = kind;
                if (kind == st::ElemStageKind::MulConst ||
                    kind == st::ElemStageKind::AddConst)
                    stage.c = randomTensor(rng.bernoulli(0.5) ? 1 : rows,
                                           cols, rng);
                else
                    stage.alpha = static_cast<float>(rng.uniform(-2.0, 2.0));
                const auto operand = [&](std::size_t r, std::size_t i) {
                    return stage.c.at(stage.c.rows() == 1 ? 0 : r, i);
                };

                auto [lhs, rhs] =
                    runBothLevels(rows, cols, [&](st::Tensor& out) {
                        st::elemChainInto(a, stage, out);
                    });
                st::Tensor ref(rows, cols);
                for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t i = 0; i < cols; ++i) {
                        const float v = a.at(r, i);
                        switch (kind) {
                          case st::ElemStageKind::Scale:
                            ref.at(r, i) = stage.alpha * v;
                            break;
                          case st::ElemStageKind::AddScalar:
                            ref.at(r, i) = v + stage.alpha;
                            break;
                          case st::ElemStageKind::MulConst:
                            ref.at(r, i) = v * operand(r, i);
                            break;
                          case st::ElemStageKind::AddConst:
                            ref.at(r, i) = v + operand(r, i);
                            break;
                        }
                    }
                }
                EXPECT_TRUE(bitEqual(lhs, ref)) << "scalar forward";
                EXPECT_TRUE(bitEqual(rhs, ref)) << "avx2 forward";

                // Backward: ga += g times the constant Jacobian, the
                // product rounded before the add.
                const st::Tensor g = randomTensor(rows, cols, rng);
                const st::Tensor ga0 = randomTensor(rows, cols, rng);
                auto [gradLhs, gradRhs] =
                    runBothLevels(rows, cols, [&](st::Tensor& ga) {
                        ga = ga0;
                        st::elemChainGradInto(g, stage, ga);
                    });
                st::Tensor gradRef = ga0;
                for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t i = 0; i < cols; ++i) {
                        float dv = g.at(r, i); // add: identity Jacobian
                        if (kind == st::ElemStageKind::Scale)
                            dv = stage.alpha * g.at(r, i);
                        else if (kind == st::ElemStageKind::MulConst)
                            dv = g.at(r, i) * operand(r, i);
                        gradRef.at(r, i) += dv;
                    }
                }
                EXPECT_TRUE(bitEqual(gradLhs, gradRef)) << "scalar grad";
                EXPECT_TRUE(bitEqual(gradRhs, gradRef)) << "avx2 grad";
            }
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
checkPropagate(ad::Op, util::Rng& rng)
{
    // 20 leaves a 4-seed group on the generic lane loop after two
    // 8-seed groups.
    for (const std::size_t rows : {8UL, 16UL, 20UL}) {
        for (const std::size_t nodes : {5UL, 64UL, 300UL}) {
            const std::size_t classes = nodes / 2 + 3;
            std::vector<std::uint32_t> node2class(nodes);
            for (std::uint32_t& c : node2class)
                c = static_cast<std::uint32_t>(rng.uniformIndex(classes));
            const st::SegmentIndex parents =
                overlappingSegments(nodes, classes, rng);
            // Probabilities from few distinct values, so parents tie
            // and factors (1 - p) hit exact 0s and 1s.
            st::Tensor cp(rows, nodes);
            for (std::size_t i = 0; i < cp.size(); ++i)
                cp.data()[i] =
                    0.25f * static_cast<float>(rng.uniformIndex(5));
            const st::Tensor g = randomTensor(rows, nodes, rng);
            const st::Tensor gcp0 = randomTensor(rows, nodes, rng);
            for (const st::Assumption assumption :
                 {st::Assumption::Independent, st::Assumption::Correlated,
                  st::Assumption::Hybrid}) {
                st::PropagateSpec spec;
                spec.node2class = &node2class;
                spec.parents = &parents;
                spec.root = static_cast<std::uint32_t>(
                    rng.uniformIndex(classes));
                spec.rounds = 1 + rng.uniformIndex(5);
                spec.assumption = assumption;
                std::vector<st::Tensor> saved;
                std::vector<st::Tensor> grads;
                auto [lhs, rhs] =
                    runBothLevels(rows, nodes, [&](st::Tensor& p) {
                        st::Tensor state(rows, st::propagateSavedCols(spec));
                        st::Tensor scratch(rows,
                                           st::propagateScratchCols(spec));
                        st::propagateInto(cp, spec, p, state, scratch);
                        st::Tensor gcp = gcp0;
                        st::propagateGradInto(cp, spec, g, state, gcp,
                                              scratch);
                        saved.push_back(std::move(state));
                        grads.push_back(std::move(gcp));
                    });
                SCOPED_TRACE(std::to_string(rows) + "x" +
                             std::to_string(nodes) + ", assumption " +
                             std::to_string(static_cast<int>(assumption)));
                EXPECT_TRUE(bitEqual(lhs, rhs)) << "p";
                EXPECT_TRUE(bitEqual(saved[0], saved[1]))
                    << "q and argmax";
                EXPECT_TRUE(bitEqual(grads[0], grads[1])) << "gcp";
            }
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
 * rescaled so ||A||_inf lands in [2, 7] (Taylor degrees 24 to 46).
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

/** Runs ad::expm at both SIMD levels; the outputs must match bitwise. */
void
expectExpmBitIdentical(const std::vector<float>& a, std::size_t d)
{
    std::vector<float> scalarOut(d * d);
    std::vector<float> avxOut(d * d);
    LevelGuard guard;
    simd::setLevel(simd::Level::Scalar);
    const int scalarDegree = ad::expm(a.data(), d, scalarOut.data());
    simd::setLevel(simd::Level::Avx2);
    const int avxDegree = ad::expm(a.data(), d, avxOut.data());
    EXPECT_EQ(scalarDegree, avxDegree) << "d=" << d;
    EXPECT_EQ(std::memcmp(scalarOut.data(), avxOut.data(),
                          d * d * sizeof(float)),
              0)
        << "d=" << d;
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
        expectExpmBitIdentical(sccShapedMatrix(d, rng), d);
}

/** The parity check covering `op`'s forward kernel, or nullptr. */
ParityCheck
parityCheckFor(ad::Op op)
{
    switch (op) {
      case ad::Op::Add:
      case ad::Op::Mul:
      case ad::Op::Relu:
        return checkElementwise;
      case ad::Op::FusedElemChain:
        return checkElemChain;
      case ad::Op::Propagate:
        return checkPropagate;
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
      case ad::Op::Propagate:
        return checkPropagate; // also runs propagateGradInto
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

TEST(SimdParity, ElemChainMatchesScalarLoopBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkElemChain, 0xc4a1);
}

TEST(SimdParity, PropagateIsBitIdentical)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    runParityChecks(checkPropagate, 0x9c0d);
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

TEST(SimdParity, TaylorTermStepMatchesUnfusedReferenceBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    util::Rng rng(0xc5a);
    // Sub-panel widths, the d % 16 and d % 4 tails, and whole panels.
    for (const std::size_t d : {1UL, 3UL, 5UL, 12UL, 17UL, 33UL, 64UL, 71UL}) {
        SCOPED_TRACE("d=" + std::to_string(d));
        const std::size_t n2 = d * d;
        // A: about 10% nonzero, every third row all zero (an empty CSR
        // row); b dense signed; the running sum out starts nonzero.
        std::vector<double> a(n2, 0.0);
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t j = 0; j < d; ++j)
                if (i % 3 != 2 && rng.bernoulli(0.1))
                    a[i * d + j] = rng.uniform(-1.0, 1.0);
        std::vector<double> b(n2);
        for (double& v : b)
            v = rng.uniform(-2.0, 2.0);
        std::vector<double> outStart(n2);
        for (double& v : outStart)
            v = rng.uniform(0.5, 3.0);
        const double s = 1.0 / static_cast<double>(3 + d % 7);
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

        // The unfused reference: a dense ikj product that skips A's
        // zeros, then c *= s, then out += c.
        std::vector<double> refC(n2, 0.0);
        for (std::size_t i = 0; i < d; ++i)
            for (std::size_t k = 0; k < d; ++k)
                if (a[i * d + k] != 0.0)
                    for (std::size_t j = 0; j < d; ++j)
                        refC[i * d + j] += a[i * d + k] * b[k * d + j];
        std::vector<double> refOut = outStart;
        for (std::size_t i = 0; i < n2; ++i) {
            refC[i] *= s;
            refOut[i] += refC[i];
        }

        LevelGuard guard;
        const std::size_t bytes = n2 * sizeof(double);
        for (const simd::Level level :
             {simd::Level::Scalar, simd::Level::Avx2}) {
            SCOPED_TRACE(level == simd::Level::Avx2 ? "avx2" : "scalar");
            simd::setLevel(level);
            std::vector<double> c(n2, -1.0);
            std::vector<double> out = outStart;
            ad::taylorTermStep(rowOffsets.data(), cols.data(),
                               values.data(), b.data(), s, c.data(),
                               out.data(), d);
            EXPECT_EQ(std::memcmp(c.data(), refC.data(), bytes), 0);
            EXPECT_EQ(std::memcmp(out.data(), refOut.data(), bytes), 0);
        }
    }
}

TEST(SimdParity, AdamStepMatchesScalarLoopBitwise)
{
    if (!avx2Available())
        GTEST_SKIP() << "CPU lacks AVX2; nothing to compare";
    const ad::AdamConfig config{0.05f, 0.9f, 0.999f, 1e-8f};
    constexpr int kSteps = 5;
    // Below one register, the 8-wide tails, and two parameters.
    for (const std::size_t n : {1UL, 7UL, 13UL, 30UL, 1003UL}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        util::Rng rng(0xada + n);
        const st::Tensor start = randomTensor(1, n, rng);
        std::vector<st::Tensor> grads;
        for (int t = 0; t < kSteps; ++t)
            grads.push_back(randomTensor(2, n, rng));

        // The reference: Adam's per-element loop, written out here.
        std::vector<float> refW(start.data(), start.data() + n);
        std::vector<float> refW2 = refW;
        std::vector<float> m(2 * n, 0.0f);
        std::vector<float> v(2 * n, 0.0f);
        for (int t = 0; t < kSteps; ++t) {
            const float c1 = 1.0f - std::pow(config.beta1,
                                             static_cast<float>(t + 1));
            const float c2 = 1.0f - std::pow(config.beta2,
                                             static_cast<float>(t + 1));
            for (std::size_t i = 0; i < 2 * n; ++i) {
                float& w = i < n ? refW[i] : refW2[i - n];
                const float g = grads[t].data()[i];
                m[i] = config.beta1 * m[i] + (1.0f - config.beta1) * g;
                v[i] = config.beta2 * v[i] + (1.0f - config.beta2) * g * g;
                const float mHat = m[i] / c1;
                const float vHat = v[i] / c2;
                w -= config.lr * mHat / (std::sqrt(vHat) + config.epsilon);
            }
        }

        LevelGuard guard;
        for (const simd::Level level :
             {simd::Level::Scalar, simd::Level::Avx2}) {
            SCOPED_TRACE(level == simd::Level::Avx2 ? "avx2" : "scalar");
            simd::setLevel(level);
            ad::Param a(start);
            ad::Param b(start);
            ad::Adam adam({&a, &b}, config);
            for (int t = 0; t < kSteps; ++t) {
                std::copy(grads[t].data(), grads[t].data() + n,
                          a.grad.data());
                std::copy(grads[t].data() + n, grads[t].data() + 2 * n,
                          b.grad.data());
                adam.step();
            }
            const std::size_t bytes = n * sizeof(float);
            EXPECT_EQ(std::memcmp(a.value.data(), refW.data(), bytes), 0);
            EXPECT_EQ(std::memcmp(b.value.data(), refW2.data(), bytes), 0);
            EXPECT_EQ(std::memcmp(adam.moment1(1).data(), m.data() + n,
                                  bytes),
                      0);
            EXPECT_EQ(std::memcmp(adam.moment2(1).data(), v.data() + n,
                                  bytes),
                      0);
        }
    }
}
