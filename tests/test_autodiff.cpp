/**
 * @file
 * Autodiff tests: forward values, analytic vs numeric gradients for every
 * op, matrix exponential correctness, Adam convergence, and the fused
 * propagation op bitwise against the unrolled rounds it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/adam.hpp"
#include "autodiff/gradcheck.hpp"
#include "autodiff/matexp.hpp"
#include "autodiff/tape.hpp"
#include "datasets/generators.hpp"
#include "extraction/solution.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ad = smoothe::ad;
namespace st = smoothe::tensor;
using ad::Param;
using ad::Tape;
using ad::Tensor;
using ad::VarId;

namespace {

Tensor
randomTensor(std::size_t rows, std::size_t cols, smoothe::util::Rng& rng,
             double lo = -1.0, double hi = 1.0)
{
    Tensor t(rows, cols);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniform(lo, hi));
    return t;
}

/**
 * Reference exp(A) for a row-major d x d matrix: the unscaled 80-term
 * Taylor sum in long double. At ||A||_inf = 10 its remainder is below
 * 1e-35 (40 terms would leave about 1e-4).
 */
std::vector<long double>
taylorExpm(const std::vector<double>& a, std::size_t d)
{
    std::vector<long double> ref(d * d, 0.0L);
    std::vector<long double> term(d * d, 0.0L);
    std::vector<long double> next(d * d);
    for (std::size_t i = 0; i < d; ++i)
        ref[i * d + i] = term[i * d + i] = 1.0L;
    for (int k = 1; k <= 80; ++k) {
        // next = A * term / k, skipping A's zeros.
        std::fill(next.begin(), next.end(), 0.0L);
        for (std::size_t i = 0; i < d; ++i) {
            for (std::size_t m = 0; m < d; ++m) {
                const long double aim = a[i * d + m];
                if (aim == 0.0L)
                    continue;
                for (std::size_t j = 0; j < d; ++j)
                    next[i * d + j] += aim * term[m * d + j];
            }
        }
        for (std::size_t i = 0; i < d * d; ++i) {
            term[i] = next[i] / k;
            ref[i] += term[i];
        }
    }
    return ref;
}

} // namespace

TEST(Matexp, IdentityOnZero)
{
    const std::size_t d = 4;
    std::vector<float> a(d * d, 0.0f);
    std::vector<float> out(d * d);
    ad::expm(a.data(), d, out.data());
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j)
            EXPECT_NEAR(out[i * d + j], i == j ? 1.0f : 0.0f, 1e-6);
    }
    double trace = 0.0;
    for (std::size_t i = 0; i < d; ++i)
        trace += out[i * d + i];
    EXPECT_NEAR(trace, 4.0, 1e-9);
}

TEST(Matexp, DiagonalMatrix)
{
    const std::size_t d = 3;
    std::vector<float> a(d * d, 0.0f);
    a[0] = 1.0f;
    a[4] = 2.0f;
    a[8] = -0.5f;
    std::vector<float> out(d * d);
    ad::expm(a.data(), d, out.data());
    EXPECT_NEAR(out[0], std::exp(1.0), 1e-4);
    EXPECT_NEAR(out[4], std::exp(2.0), 1e-3);
    EXPECT_NEAR(out[8], std::exp(-0.5), 1e-5);
    EXPECT_NEAR(out[1], 0.0, 1e-6);
}

TEST(Matexp, NilpotentMatrix)
{
    // A = [[0, 1], [0, 0]] -> exp(A) = [[1, 1], [0, 1]].
    std::vector<float> a = {0.0f, 1.0f, 0.0f, 0.0f};
    std::vector<float> out(4);
    ad::expm(a.data(), 2, out.data());
    EXPECT_NEAR(out[0], 1.0, 1e-6);
    EXPECT_NEAR(out[1], 1.0, 1e-6);
    EXPECT_NEAR(out[2], 0.0, 1e-6);
    EXPECT_NEAR(out[3], 1.0, 1e-6);
}

TEST(Matexp, TwoByTwoCycleTrace)
{
    // A = [[0, w], [w, 0]] -> tr(exp(A)) = 2 cosh(w) > 2 when w > 0:
    // the NOTEARS signal for a 2-cycle.
    std::vector<float> a = {0.0f, 0.7f, 0.7f, 0.0f};
    std::vector<float> out(4);
    ad::expm(a.data(), 2, out.data());
    EXPECT_NEAR(double{out[0]} + out[3], 2.0 * std::cosh(0.7), 1e-5);
}

TEST(Matexp, LargeNormUnscaledSeries)
{
    // ||A||_inf = 4 is summed directly, with no scaling: degree 33.
    std::vector<float> a = {3.0f, 1.0f, 0.0f, 2.0f};
    std::vector<float> out(4);
    ad::expm(a.data(), 2, out.data());
    // Upper triangular: exp keeps triangularity; diag = exp(diag).
    EXPECT_NEAR(out[0], std::exp(3.0), 1e-2);
    EXPECT_NEAR(out[3], std::exp(2.0), 1e-3);
    EXPECT_NEAR(out[2], 0.0, 1e-5);
    // Off-diagonal of exp([[3,1],[0,2]]) = e^3 - e^2.
    EXPECT_NEAR(out[1], std::exp(3.0) - std::exp(2.0), 2e-2);
}

TEST(Matexp, FloatApiMatchesLongDoubleTaylor)
{
    smoothe::util::Rng rng(77);
    for (const std::size_t d : {1u, 2u, 5u, 16u}) {
        std::vector<float> a(d * d);
        for (auto& v : a)
            v = static_cast<float>(rng.uniform(-0.5, 1.5));
        std::vector<float> out(d * d);
        ad::expm(a.data(), d, out.data());
        const std::vector<long double> ref =
            taylorExpm(std::vector<double>(a.begin(), a.end()), d);
        for (std::size_t i = 0; i < d * d; ++i) {
            const double expected = static_cast<double>(ref[i]);
            EXPECT_NEAR(out[i], expected, 1e-4 * (1.0 + std::fabs(expected)))
                << "d=" << d << " i=" << i;
        }
    }
}

TEST(Matexp, MatchesLongDoubleTaylorOnSparseNonnegative)
{
    // SmoothE's penalty shape: nonnegative, about 10% nonzero, norms up
    // to 10 (degree 57; rover's nine-child nodes take 54). Pins the
    // accuracy of the series, normwise and on every entry, against an
    // 80-term Taylor sum in long double (no cancellation: every term is
    // nonnegative). The per-entry bound catches a degree that stops
    // while the small entries still miss terms.
    struct Case {
        std::size_t d;
        double norm;
    };
    std::vector<Case> cases;
    for (const double norm : {0.4, 1.0, 3.0, 5.0, 7.0, 8.0, 10.0})
        cases.push_back({64, norm});
    cases.push_back({256, 10.0});
    smoothe::util::Rng rng(0x5ca1e);
    for (const Case& c : cases) {
        const std::size_t d = c.d;
        std::vector<double> a(d * d, 0.0);
        for (auto& v : a)
            if (rng.bernoulli(0.1))
                v = rng.uniform(0.0, 1.0);
        a[1] = 1.0;
        double norm = 0.0;
        for (std::size_t i = 0; i < d; ++i) {
            double rowSum = 0.0;
            for (std::size_t j = 0; j < d; ++j)
                rowSum += a[i * d + j];
            norm = std::max(norm, rowSum);
        }
        for (auto& v : a)
            v *= c.norm / norm;

        const std::vector<long double> ref = taylorExpm(a, d);

        std::vector<double> out(d * d);
        ad::expmDouble(a.data(), d, out.data());
        long double errNorm = 0.0L;
        long double refNorm = 0.0L;
        long double worstEntry = 0.0L;
        for (std::size_t i = 0; i < d; ++i) {
            long double errRow = 0.0L;
            long double refRow = 0.0L;
            for (std::size_t j = 0; j < d; ++j) {
                const long double err =
                    std::fabs(out[i * d + j] - ref[i * d + j]);
                errRow += err;
                refRow += std::fabs(ref[i * d + j]);
                if (err > 0.0L)
                    worstEntry = std::max(
                        worstEntry, err / std::fabs(ref[i * d + j]));
            }
            errNorm = std::max(errNorm, errRow);
            refNorm = std::max(refNorm, refRow);
        }
        EXPECT_LE(static_cast<double>(errNorm / refNorm), 1e-13)
            << "d = " << d << ", ||A||_inf = " << c.norm;
        EXPECT_LE(static_cast<double>(worstEntry), 1e-12)
            << "d = " << d << ", ||A||_inf = " << c.norm;
    }
}

TEST(Tape, ForwardElementwise)
{
    Tape tape;
    Tensor a(1, 3);
    a.at(0, 0) = 1.0f;
    a.at(0, 1) = -2.0f;
    a.at(0, 2) = 3.0f;
    Tensor b(1, 3, 2.0f);
    const VarId va = tape.constant(a);
    const VarId vb = tape.constant(b);
    EXPECT_FLOAT_EQ(tape.value(tape.add(va, vb)).at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.addConst(va, b)).at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.mulConst(va, b)).at(0, 1), -4.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.mul(va, vb)).at(0, 2), 6.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.scale(va, -2.0f)).at(0, 0), -2.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.addScalar(va, 5.0f)).at(0, 1), 3.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.relu(va)).at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(tape.value(tape.relu(va)).at(0, 2), 3.0f);
}

TEST(Tape, ElementwiseMatchesDirectLoop)
{
    smoothe::util::Rng rng(5);
    Tensor a = randomTensor(3, 17, rng);
    Tensor b = randomTensor(3, 17, rng);
    Tape tape;
    const VarId va = tape.constant(a);
    const VarId vb = tape.constant(b);
    const VarId f = tape.mul(tape.add(va, vb), vb);
    for (std::size_t i = 0; i < 3 * 17; ++i) {
        const float x = a.data()[i];
        const float y = b.data()[i];
        EXPECT_FLOAT_EQ(tape.value(f).data()[i], (x + y) * y);
    }
}

TEST(Tape, MatmulAndTrExpmMatchReferences)
{
    smoothe::util::Rng rng(88);
    Tensor a = randomTensor(3, 5, rng);
    Tensor w = randomTensor(5, 4, rng);
    Tensor m = randomTensor(2, 9, rng, -0.3, 0.8);

    Tape tape;
    const VarId mm = tape.matmul(tape.constant(a), tape.constant(w));
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t h = 0; h < 4; ++h) {
            double acc = 0.0;
            for (std::size_t k = 0; k < 5; ++k)
                acc += static_cast<double>(a.at(r, k)) * w.at(k, h);
            EXPECT_NEAR(tape.value(mm).at(r, h), acc, 1e-5);
        }
    }

    const VarId tr = tape.trExpm(tape.constant(m), 3);
    for (std::size_t r = 0; r < 2; ++r) {
        const std::vector<long double> ref =
            taylorExpm(std::vector<double>(m.row(r), m.row(r) + 9), 3);
        const double trace =
            static_cast<double>(ref[0] + ref[4] + ref[8]);
        EXPECT_NEAR(tape.value(tr).at(r, 0), trace, 1e-5);
    }
}

TEST(Tape, SegmentSoftmaxNormalizes)
{
    // Segments over 5 columns: {0,1}, {2,3,4}.
    st::SegmentIndex segs;
    segs.offsets = {0, 2, 5};
    segs.items = {0, 1, 2, 3, 4};
    smoothe::util::Rng rng(9);
    Param theta{randomTensor(2, 5, rng, -3.0, 3.0)};
    Tape tape;
    const VarId cp = tape.segmentSoftmax(tape.leaf(&theta), &segs);
    const Tensor& v = tape.value(cp);
    for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_NEAR(v.at(r, 0) + v.at(r, 1), 1.0, 1e-5);
        EXPECT_NEAR(v.at(r, 2) + v.at(r, 3) + v.at(r, 4), 1.0, 1e-5);
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_GT(v.at(r, c), 0.0f);
    }
}

TEST(Tape, DotRowsForward)
{
    Tape tape;
    Tensor x(1, 4);
    x.at(0, 0) = 0.9f;
    x.at(0, 1) = 0.1f;
    x.at(0, 2) = 0.5f;
    x.at(0, 3) = 0.9f;
    const VarId dot =
        tape.dotRowsConst(tape.constant(x), {1.0f, 2.0f, 3.0f, 4.0f});
    EXPECT_NEAR(tape.value(dot).at(0, 0),
                0.9 + 0.2 + 1.5 + 3.6, 1e-5);
}

// --- gradient checks per op --------------------------------------------

namespace {

void
expectGradCheck(const std::vector<Param*>& params,
                const ad::GraphBuilder& build)
{
    const auto result = ad::checkGradients(params, build);
    EXPECT_TRUE(result.ok)
        << "max rel error " << result.maxRelError << " at param "
        << result.worstParam << "[" << result.worstIndex << "]";
}

} // namespace

TEST(GradCheck, Elementwise)
{
    smoothe::util::Rng rng(21);
    Param a{randomTensor(2, 4, rng)};
    Param b{randomTensor(2, 4, rng)};
    expectGradCheck({&a, &b}, [&](Tape& tape) {
        const VarId va = tape.leaf(&a);
        const VarId vb = tape.leaf(&b);
        const VarId expr = tape.mul(tape.add(va, tape.scale(vb, 0.5f)),
                                    tape.add(va, tape.scale(vb, -1.0f)));
        return tape.sumAll(expr);
    });
}

TEST(GradCheck, ReluAwayFromKink)
{
    smoothe::util::Rng rng(22);
    Param a{randomTensor(2, 6, rng, 0.2, 1.0)}; // stay off the kink
    for (std::size_t i = 0; i < 6; ++i)
        a.value.at(1, i) = static_cast<float>(-0.2 - 0.1 * i);
    expectGradCheck({&a}, [&](Tape& tape) {
        return tape.sumAll(tape.relu(tape.leaf(&a)));
    });
}

TEST(GradCheck, MulAddConstBroadcast)
{
    smoothe::util::Rng rng(23);
    Param a{randomTensor(3, 4, rng)};
    Tensor mask(1, 4);
    mask.at(0, 0) = 0.0f;
    mask.at(0, 1) = 1.0f;
    mask.at(0, 2) = 2.0f;
    mask.at(0, 3) = -1.0f;
    expectGradCheck({&a}, [&](Tape& tape) {
        const VarId x = tape.mulConst(tape.leaf(&a), mask);
        return tape.sumAll(tape.addConst(x, mask));
    });
}

TEST(GradCheck, DotRowsConst)
{
    smoothe::util::Rng rng(24);
    Param a{randomTensor(3, 5, rng)};
    expectGradCheck({&a}, [&](Tape& tape) {
        const VarId d =
            tape.dotRowsConst(tape.leaf(&a), {1.0f, -2.0f, 0.5f, 3.0f, 2.0f});
        return tape.sumAll(d);
    });
}

TEST(GradCheck, SegmentSoftmax)
{
    st::SegmentIndex segs;
    segs.offsets = {0, 3, 5, 6};
    segs.items = {0, 1, 2, 3, 4, 5};
    smoothe::util::Rng rng(25);
    Param theta{randomTensor(2, 6, rng, -2.0, 2.0)};
    expectGradCheck({&theta}, [&](Tape& tape) {
        const VarId cp = tape.segmentSoftmax(tape.leaf(&theta), &segs);
        // Weighted sum makes the gradient non-trivial per element.
        return tape.sumAll(tape.dotRowsConst(
            cp, {1.0f, 3.0f, -2.0f, 0.5f, 2.0f, -1.0f}));
    });
}

namespace {

/**
 * A four-class e-graph for the propagation checks: class 0 (the root)
 * holds nodes 0 and 1, class 1 nodes 2 and 3, class 2 nodes 4 and 5,
 * class 3 node 6. Class 1's parents are nodes 0 and 1, class 2's node
 * 0, class 3's nodes 1, 3 and 4; the root has none.
 */
struct TinyPropagation
{
    std::vector<std::uint32_t> node2class = {0, 0, 1, 1, 2, 2, 3};
    st::SegmentIndex members =
        st::SegmentIndex::fromAssignment(node2class, 4);
    st::SegmentIndex parents;

    TinyPropagation()
    {
        parents.offsets = {0, 0, 2, 3, 6};
        parents.items = {0, 1, 0, 1, 3, 4};
    }

    st::PropagateSpec
    spec(st::Assumption assumption) const
    {
        st::PropagateSpec out;
        out.node2class = &node2class;
        out.parents = &parents;
        out.root = 0;
        out.rounds = 3;
        out.assumption = assumption;
        return out;
    }
};

constexpr st::Assumption kAssumptions[] = {st::Assumption::Independent,
                                           st::Assumption::Correlated,
                                           st::Assumption::Hybrid};

} // namespace

TEST(GradCheck, Propagate)
{
    const TinyPropagation tiny;
    for (const st::Assumption assumption : kAssumptions) {
        SCOPED_TRACE(static_cast<int>(assumption));
        smoothe::util::Rng rng(26);
        // Spread-out logits keep every max's argmax stable under the
        // finite-difference step.
        Param theta{randomTensor(2, 7, rng, -2.0, 2.0)};
        const st::PropagateSpec spec = tiny.spec(assumption);
        expectGradCheck({&theta}, [&](Tape& tape) {
            const VarId cp =
                tape.segmentSoftmax(tape.leaf(&theta), &tiny.members);
            return tape.sumAll(tape.dotRowsConst(
                tape.propagate(cp, spec),
                {1.0f, 5.0f, 2.0f, -3.0f, 0.5f, 4.0f, 2.5f}));
        });
    }
}

TEST(GradCheck, MatMulAndBias)
{
    smoothe::util::Rng rng(29);
    Param a{randomTensor(2, 3, rng)};
    Param w{randomTensor(3, 4, rng)};
    Param bias{randomTensor(1, 4, rng)};
    expectGradCheck({&a, &w, &bias}, [&](Tape& tape) {
        const VarId h = tape.addRowBroadcast(
            tape.matmul(tape.leaf(&a), tape.leaf(&w)), tape.leaf(&bias));
        return tape.sumAll(tape.mul(h, h));
    });
}

TEST(GradCheck, ScatterMatrixPerSeed)
{
    const std::vector<ad::MatrixEntry> entries = {
        {0, 1}, {1, 2}, {2, 1}, {0, 3}};
    smoothe::util::Rng rng(30);
    Param cp{randomTensor(2, 3, rng, 0.1, 0.9)};
    expectGradCheck({&cp}, [&](Tape& tape) {
        const VarId a =
            tape.scatterMatrix(tape.leaf(&cp), &entries, 2, false);
        return tape.sumAll(tape.mul(a, a));
    });
}

TEST(GradCheck, ScatterMatrixMeanAndTrExpm)
{
    // Two classes forming a 2-cycle; entries place cp mass on the
    // off-diagonals, so tr(exp(A)) = 2 cosh(sqrt(a01 * a10)).
    const std::vector<ad::MatrixEntry> entries = {
        {0, 1}, {1, 2}};
    smoothe::util::Rng rng(31);
    Param cp{randomTensor(3, 2, rng, 0.1, 0.9)};
    expectGradCheck({&cp}, [&](Tape& tape) {
        const VarId a =
            tape.scatterMatrix(tape.leaf(&cp), &entries, 2, true);
        return tape.sumAll(tape.trExpm(a, 2));
    });
}

TEST(GradCheck, TrExpmPerSeed)
{
    smoothe::util::Rng rng(32);
    Param a{randomTensor(2, 9, rng, -0.4, 0.4)};
    expectGradCheck({&a}, [&](Tape& tape) {
        return tape.sumAll(tape.trExpm(tape.leaf(&a), 3));
    });
}

TEST(Tape, SegmentSoftmaxMatchesClosedForm)
{
    st::SegmentIndex segs;
    segs.offsets = {0, 3, 5, 6};
    segs.items = {0, 1, 2, 3, 4, 5};
    smoothe::util::Rng rng(91);
    Tensor theta = randomTensor(3, 6, rng, -2.0, 2.0);

    Tape tape;
    const VarId sm = tape.segmentSoftmax(tape.constant(theta), &segs);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t s = 0; s < 3; ++s) {
            double denom = 0.0;
            for (std::uint32_t e = segs.offsets[s]; e < segs.offsets[s + 1];
                 ++e)
                denom += std::exp(static_cast<double>(theta.at(r, e)));
            for (std::uint32_t e = segs.offsets[s]; e < segs.offsets[s + 1];
                 ++e) {
                EXPECT_NEAR(tape.value(sm).at(r, e),
                            std::exp(static_cast<double>(theta.at(r, e))) /
                                denom,
                            1e-6);
            }
        }
    }
}

// --- Propagate against the unrolled rounds it replaced -------------------

namespace {

/** A generated e-graph's propagation structure, as SmoothE prepares it. */
struct GraphStructure
{
    std::vector<std::uint32_t> node2class;
    st::SegmentIndex members;
    st::SegmentIndex parents; ///< class -> distinct parent nodes
    std::uint32_t root = 0;

    explicit GraphStructure(const smoothe::eg::EGraph& g)
        : root(static_cast<std::uint32_t>(g.root()))
    {
        for (smoothe::eg::NodeId id = 0; id < g.numNodes(); ++id)
            node2class.push_back(g.classOf(id));
        members =
            st::SegmentIndex::fromAssignment(node2class, g.numClasses());
        parents.offsets.push_back(0);
        for (smoothe::eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
            for (smoothe::eg::NodeId parent : g.parents(cls))
                parents.items.push_back(parent);
            parents.offsets.push_back(
                static_cast<std::uint32_t>(parents.items.size()));
        }
    }
};

/** The last round's q, p, and gcp after the backward pass. */
struct PropagateResult
{
    Tensor q;
    Tensor p;
    Tensor gcp;
};

/**
 * The per-round ops Op::Propagate replaced, one seed row at a time: the
 * gather, mul, product-complement and max kernels' scalar loops and the
 * elementwise chain stages, each operation rounded on its own. The
 * backward follows the compiled Program's schedule: descending op ids,
 * every gradient accumulated into a freshly zeroed slot, and the
 * chain Jacobians applied stage by stage in reverse.
 */
PropagateResult
unrolledReference(const st::PropagateSpec& spec, const Tensor& cp,
                  const Tensor& g, const Tensor& gcp0)
{
    const std::size_t n = spec.numNodes();
    const std::size_t m = spec.numClasses();
    const std::size_t rounds = spec.rounds;
    const std::vector<std::uint32_t>& node2class = *spec.node2class;
    const std::vector<std::uint32_t>& offsets = spec.parents->offsets;
    const std::vector<std::uint32_t>& items = spec.parents->items;
    const bool product = spec.assumption != st::Assumption::Correlated;
    const bool max = spec.assumption != st::Assumption::Independent;
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

    PropagateResult out{Tensor(cp.rows(), m), Tensor(cp.rows(), n), gcp0};
    for (std::size_t b = 0; b < cp.rows(); ++b) {
        const float* c = cp.row(b);
        // gathered[t] = q_t[class], probs[t] = cp * gathered[t].
        std::vector<std::vector<float>> gathered(rounds + 1,
                                                 std::vector<float>(n));
        std::vector<std::vector<float>> probs(rounds, std::vector<float>(n));
        std::vector<std::vector<std::uint32_t>> args(
            rounds, std::vector<std::uint32_t>(m, kNone));
        std::vector<float> q(m, 0.0f);
        q[spec.root] = 1.0f;
        for (std::size_t t = 0;; ++t) {
            for (std::size_t i = 0; i < n; ++i)
                gathered[t][i] = q[node2class[i]];
            if (t == rounds)
                break;
            std::vector<float>& pr = probs[t];
            for (std::size_t i = 0; i < n; ++i)
                pr[i] = c[i] * gathered[t][i];
            std::vector<float> next(m);
            for (std::size_t s = 0; s < m; ++s) {
                float prod = 1.0f;
                for (std::uint32_t e = offsets[s]; e < offsets[s + 1]; ++e)
                    prod *= (1.0f - pr[items[e]]);
                float best = 0.0f;
                if (offsets[s] != offsets[s + 1]) {
                    best = -std::numeric_limits<float>::infinity();
                    args[t][s] = items[offsets[s]];
                    for (std::uint32_t e = offsets[s]; e < offsets[s + 1];
                         ++e) {
                        if (pr[items[e]] > best) {
                            best = pr[items[e]];
                            args[t][s] = items[e];
                        }
                    }
                }
                float v = best;
                if (product) {
                    float ind = -1.0f * prod;
                    ind = ind + 1.0f;
                    v = ind;
                    if (max) {
                        v = ind + best;
                        v = 0.5f * v;
                    }
                }
                v = v * (s == spec.root ? 0.0f : 1.0f);
                v = v + (s == spec.root ? 1.0f : 0.0f);
                next[s] = v;
            }
            q = next;
        }
        for (std::size_t s = 0; s < m; ++s)
            out.q.at(b, s) = q[s];
        for (std::size_t i = 0; i < n; ++i)
            out.p.at(b, i) = c[i] * gathered[rounds][i];

        float* gcp = out.gcp.row(b);
        // mul(cp, gathered) backward: the cp side, then the gathered
        // side into a fresh slot, which the gather sums per class.
        const auto mulBackward = [&](const std::vector<float>& gp,
                                     std::size_t t, bool intoQ,
                                     std::vector<float>& gq) {
            for (std::size_t i = 0; i < n; ++i)
                gcp[i] += gp[i] * gathered[t][i];
            if (!intoQ)
                return;
            std::vector<float> gGathered(n, 0.0f);
            for (std::size_t i = 0; i < n; ++i)
                gGathered[i] += gp[i] * c[i];
            gq.assign(m, 0.0f);
            for (std::size_t i = 0; i < n; ++i)
                gq[node2class[i]] += gGathered[i];
        };
        std::vector<float> gq;
        mulBackward(std::vector<float>(g.row(b), g.row(b) + n), rounds,
                    rounds > 0, gq);
        for (std::size_t t = rounds; t-- > 0;) {
            std::vector<float> gMax(m, 0.0f);
            std::vector<float> gProduct(m, 0.0f);
            for (std::size_t s = 0; s < m; ++s) {
                float v = gq[s] * (s == spec.root ? 0.0f : 1.0f);
                if (!product) {
                    gMax[s] += v;
                } else if (!max) {
                    gProduct[s] += -1.0f * v;
                } else {
                    v = 0.5f * v;
                    float gSum = 0.0f; // the add's grad slot
                    gSum += v;
                    float gInd = 0.0f;
                    gInd += gSum;
                    gMax[s] += gSum;
                    gProduct[s] += -1.0f * gInd;
                }
            }
            const std::vector<float>& pr = probs[t];
            std::vector<float> gp(n, 0.0f);
            if (max) {
                for (std::size_t s = 0; s < m; ++s)
                    if (args[t][s] != kNone)
                        gp[args[t][s]] += gMax[s];
            }
            if (product) {
                for (std::size_t s = 0; s < m; ++s) {
                    const std::uint32_t* seg = items.data() + offsets[s];
                    const std::size_t len = offsets[s + 1] - offsets[s];
                    if (len == 0)
                        continue;
                    std::vector<float> prefix(len + 1);
                    std::vector<float> suffix(len + 1);
                    prefix[0] = 1.0f;
                    for (std::size_t e = 0; e < len; ++e)
                        prefix[e + 1] = prefix[e] * (1.0f - pr[seg[e]]);
                    suffix[len] = 1.0f;
                    for (std::size_t e = len; e > 0; --e)
                        suffix[e - 1] = suffix[e] * (1.0f - pr[seg[e - 1]]);
                    for (std::size_t e = 0; e < len; ++e)
                        gp[seg[e]] += gProduct[s] * (-prefix[e] * suffix[e + 1]);
                }
            }
            mulBackward(gp, t, t > 0, gq);
        }
    }
    return out;
}

PropagateResult
runPropagateOp(const st::PropagateSpec& spec, const Tensor& cp,
               const Tensor& g, const Tensor& gcp0)
{
    PropagateResult out{Tensor(cp.rows(), spec.numClasses()),
                        Tensor(cp.rows(), spec.numNodes()), gcp0};
    Tensor saved(cp.rows(), st::propagateSavedCols(spec));
    Tensor scratch(cp.rows(), st::propagateScratchCols(spec));
    st::propagateInto(cp, spec, out.p, saved, scratch);
    st::propagatedClassesInto(spec, saved, out.q);
    st::propagateGradInto(cp, spec, g, saved, out.gcp, scratch);
    return out;
}

bool
bitEqual(const Tensor& a, const Tensor& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

TEST(Propagate, MatchesUnrolledRoundsBitwise)
{
    namespace ds = smoothe::datasets;
    ds::FamilyParams cyclic = ds::diospyrosParams();
    cyclic.numClasses = 60;
    cyclic.cycleFraction = 0.1;
    ds::FamilyParams acyclic = ds::impressParams();
    acyclic.numClasses = 60;
    acyclic.cycleFraction = 0.0;
    const smoothe::eg::EGraph cyclicGraph = ds::generateStructured(cyclic, 3);
    const smoothe::eg::EGraph acyclicGraph =
        ds::generateStructured(acyclic, 4);
    ASSERT_FALSE(
        smoothe::extract::CyclicSccs::of(cyclicGraph).classes.empty());
    ASSERT_TRUE(
        smoothe::extract::CyclicSccs::of(acyclicGraph).classes.empty());

    const st::simd::Level savedLevel = st::simd::activeLevel();
    for (const smoothe::eg::EGraph* graph : {&cyclicGraph, &acyclicGraph}) {
        const GraphStructure structure(*graph);
        const std::size_t n = graph->numNodes();
        for (const std::size_t batch : {1UL, 7UL, 8UL, 16UL, 20UL}) {
            smoothe::util::Rng rng(batch * 31 + n);
            // cp as SmoothE feeds it: a softmax per class.
            const Tensor theta = randomTensor(batch, n, rng, -3.0, 3.0);
            Tensor cp(batch, n);
            st::segmentSoftmaxInto(theta, structure.members, cp);
            const Tensor g = randomTensor(batch, n, rng, -2.0, 2.0);
            const Tensor gcp0 = randomTensor(batch, n, rng, -1.0, 1.0);
            for (const st::Assumption assumption : kAssumptions) {
                st::PropagateSpec spec;
                spec.node2class = &structure.node2class;
                spec.parents = &structure.parents;
                spec.root = structure.root;
                spec.rounds = 7;
                spec.assumption = assumption;
                const PropagateResult want =
                    unrolledReference(spec, cp, g, gcp0);
                for (const std::size_t threads : {1UL, 4UL}) {
                    smoothe::util::ThreadPool::setGlobalThreads(threads);
                    for (const st::simd::Level level :
                         {st::simd::Level::Scalar, st::simd::Level::Avx2}) {
                        st::simd::setLevel(level);
                        SCOPED_TRACE(
                            "nodes " + std::to_string(n) + ", B " +
                            std::to_string(batch) + ", assumption " +
                            std::to_string(static_cast<int>(assumption)) +
                            ", threads " + std::to_string(threads) + ", " +
                            st::simd::levelName(st::simd::activeLevel()));
                        const PropagateResult got =
                            runPropagateOp(spec, cp, g, gcp0);
                        EXPECT_TRUE(bitEqual(got.q, want.q));
                        EXPECT_TRUE(bitEqual(got.p, want.p));
                        EXPECT_TRUE(bitEqual(got.gcp, want.gcp));
                    }
                }
            }
        }
    }
    st::simd::setLevel(savedLevel);
    smoothe::util::ThreadPool::setGlobalThreads(1);
}

TEST(Tape, ClearDropsNodes)
{
    Tape tape;
    const VarId a = tape.constant(Tensor(1, 3, 1.0f));
    tape.scale(a, 2.0f);
    EXPECT_EQ(tape.numNodes(), 2u);
    tape.clear();
    EXPECT_EQ(tape.numNodes(), 0u);
}

TEST(Adam, FirstStepMovesByLearningRate)
{
    Param x{Tensor(1, 1, 0.0f)};
    ad::Adam opt({&x}, ad::AdamConfig{0.01f, 0.9f, 0.999f, 1e-8f});
    EXPECT_FLOAT_EQ(opt.learningRate(), 0.01f);

    // One step with grad 1 moves by ~lr (bias-corrected first step).
    x.zeroGrad();
    x.grad.at(0, 0) = 1.0f;
    opt.step();
    EXPECT_NEAR(x.value.at(0, 0), -0.01, 2e-3);
}

TEST(GradCheck, ReportsTightErrorOnLinearGraph)
{
    // d(sum(a))/da == 1 exactly; the checker must report near-zero error.
    Param a{Tensor(1, 4, 0.5f)};
    const auto result = ad::checkGradients({&a}, [&](Tape& tape) {
        return tape.sumAll(tape.leaf(&a));
    });
    EXPECT_TRUE(result.ok);
    EXPECT_LT(result.maxRelError, 1e-3);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // minimize ||x - target||^2.
    Param x{Tensor(1, 4, 0.0f)};
    Tensor target(1, 4);
    target.at(0, 0) = 1.0f;
    target.at(0, 1) = -2.0f;
    target.at(0, 2) = 0.5f;
    target.at(0, 3) = 3.0f;
    Tensor negTarget(1, 4);
    for (std::size_t i = 0; i < 4; ++i)
        negTarget.data()[i] = -target.data()[i];

    ad::Adam opt({&x}, ad::AdamConfig{0.1f, 0.9f, 0.999f, 1e-8f});
    for (int i = 0; i < 400; ++i) {
        opt.zeroGrad();
        Tape tape;
        const VarId diff = tape.addConst(tape.leaf(&x), negTarget);
        const VarId loss = tape.sumAll(tape.mul(diff, diff));
        tape.backward(loss);
        opt.step();
    }
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(x.value.data()[i], target.data()[i], 0.05);
}

TEST(Tape, BackwardThroughSharedSubexpression)
{
    // y = a * a (same input twice) -> dy/da = 2a.
    Param a{Tensor(1, 1, 3.0f)};
    a.zeroGrad();
    Tape tape;
    const VarId va = tape.leaf(&a);
    const VarId loss = tape.sumAll(tape.mul(va, va));
    tape.backward(loss);
    EXPECT_NEAR(a.grad.at(0, 0), 6.0f, 1e-5);
}

TEST(Tape, GradAccumulatesAcrossBackwardCalls)
{
    Param a{Tensor(1, 1, 2.0f)};
    a.zeroGrad();
    for (int i = 0; i < 3; ++i) {
        Tape tape;
        const VarId loss = tape.sumAll(tape.leaf(&a));
        tape.backward(loss);
    }
    EXPECT_NEAR(a.grad.at(0, 0), 3.0f, 1e-6);
}

TEST(Tape, ArenaAccountsNodeTensors)
{
    st::Arena arena;
    Tape tape(&arena);
    Tensor a(4, 100);
    const VarId va = tape.constant(std::move(a));
    const VarId scaled = tape.scale(va, 2.0f);
    tape.value(scaled);
    EXPECT_GE(arena.used(), 4 * 100 * sizeof(float));
}

TEST(Tape, RecordingRunsNoKernel)
{
    // Recording a trExpm chain allocates nothing beyond the constant it
    // was handed and runs no matrix exponential; the first value() read
    // computes the chain, bitwise equal to a tape that read every node
    // as it was recorded.
    constexpr std::size_t d = 5;
    smoothe::util::Rng rng(41);
    st::Arena arena;
    Tensor lazyInput(2, d * d, &arena);
    for (std::size_t i = 0; i < lazyInput.size(); ++i)
        lazyInput.data()[i] = static_cast<float>(rng.uniform(0.5, 1.5));
    Tensor eagerInput = lazyInput;
    auto record = [](Tape& tape, Tensor input, bool read_each) {
        const VarId scaled =
            tape.scale(tape.constant(std::move(input)), 2.0f);
        if (read_each)
            tape.value(scaled);
        const VarId tr = tape.trExpm(scaled, d);
        if (read_each)
            tape.value(tr);
        return tape.sumAll(tr);
    };
    smoothe::obs::Counter& terms =
        smoothe::obs::counter("kernel.matexp.terms");

    const std::size_t constantBytes = arena.used();
    const std::uint64_t termsBefore = terms.get();
    Tape lazy(&arena);
    const VarId lazyOut = record(lazy, std::move(lazyInput), false);
    EXPECT_EQ(arena.used(), constantBytes);
    EXPECT_EQ(terms.get(), termsBefore);

    const Tensor& lazyValue = lazy.value(lazyOut);
    EXPECT_GT(terms.get(), termsBefore);
    Tape eager(&arena);
    const VarId eagerOut = record(eager, std::move(eagerInput), true);
    const Tensor& eagerValue = eager.value(eagerOut);
    ASSERT_EQ(lazyValue.size(), eagerValue.size());
    EXPECT_EQ(std::memcmp(lazyValue.data(), eagerValue.data(),
                          lazyValue.size() * sizeof(float)),
              0);
}
