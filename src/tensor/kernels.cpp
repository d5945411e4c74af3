#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/contracts.hpp"
#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::tensor {

namespace {

/** Row r of a MulConst/AddConst stage's operand (a 1 x C operand
 *  broadcasts over rows). */
const float*
stageRow(const ElemStage& stage, std::size_t r)
{
    const Tensor& c = stage.c;
    return c.row(c.rows() == 1 ? 0 : r);
}

} // namespace

std::size_t
rowGrain(std::size_t cols)
{
    return std::max<std::size_t>(1,
                                 kElemGrain / std::max<std::size_t>(1, cols));
}

void
parallelChunks(std::size_t n, std::size_t grain,
               const std::function<void(std::size_t, std::size_t)>& body)
{
    util::ThreadPool::global().parallelForChunks(0, n, grain, body);
}

void
addInto(const Tensor& a, const Tensor& b, Tensor& out)
{
    const float* __restrict x = a.data();
    const float* __restrict y = b.data();
    float* __restrict o = out.data();
    const bool useAvx2 = simd::avx2Active();
    parallelChunks(a.size(), kElemGrain,
                   [&](std::size_t begin, std::size_t end) {
                       if (useAvx2) {
                           avx2::addSpan(x + begin, y + begin, o + begin,
                                         end - begin);
                           return;
                       }
                       for (std::size_t i = begin; i < end; ++i)
                           o[i] = x[i] + y[i];
                   });
}

void
mulInto(const Tensor& a, const Tensor& b, Tensor& out)
{
    const float* __restrict x = a.data();
    const float* __restrict y = b.data();
    float* __restrict o = out.data();
    const bool useAvx2 = simd::avx2Active();
    parallelChunks(a.size(), kElemGrain,
                   [&](std::size_t begin, std::size_t end) {
                       if (useAvx2) {
                           avx2::mulSpan(x + begin, y + begin, o + begin,
                                         end - begin);
                           return;
                       }
                       for (std::size_t i = begin; i < end; ++i)
                           o[i] = x[i] * y[i];
                   });
}

void
reluInto(const Tensor& a, Tensor& out)
{
    const float* __restrict x = a.data();
    float* __restrict o = out.data();
    const bool useAvx2 = simd::avx2Active();
    parallelChunks(a.size(), kElemGrain,
                   [&](std::size_t begin, std::size_t end) {
                       if (useAvx2) {
                           avx2::reluSpan(x + begin, o + begin,
                                          end - begin);
                           return;
                       }
                       for (std::size_t i = begin; i < end; ++i)
                           o[i] = x[i] > 0.0f ? x[i] : 0.0f;
                   });
}

void
elemChainInto(const Tensor& a, const ElemStage& stage, Tensor& out)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t n = a.cols();
    parallelChunks(
        a.rows(), rowGrain(n), [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const float* x = a.row(r);
                float* o = out.row(r);
                switch (stage.kind) {
                  case ElemStageKind::Scale:
                    if (useAvx2)
                        avx2::scaleSpan(x, stage.alpha, o, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            o[i] = stage.alpha * x[i];
                    break;
                  case ElemStageKind::AddScalar:
                    if (useAvx2)
                        avx2::addScalarSpan(x, stage.alpha, o, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            o[i] = x[i] + stage.alpha;
                    break;
                  case ElemStageKind::MulConst: {
                    const float* c = stageRow(stage, r);
                    if (useAvx2)
                        avx2::mulSpan(x, c, o, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            o[i] = x[i] * c[i];
                    break;
                  }
                  case ElemStageKind::AddConst: {
                    const float* c = stageRow(stage, r);
                    if (useAvx2)
                        avx2::addSpan(x, c, o, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            o[i] = x[i] + c[i];
                    break;
                  }
                }
            }
        });
}

void
elemChainGradInto(const Tensor& g, const ElemStage& stage, Tensor& ga)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t n = g.cols();
    parallelChunks(
        g.rows(), rowGrain(n), [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                const float* v = g.row(r);
                float* gar = ga.row(r);
                switch (stage.kind) {
                  case ElemStageKind::Scale:
                    if (useAvx2)
                        avx2::scaleAccumulateSpan(v, stage.alpha, gar, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            gar[i] += stage.alpha * v[i];
                    break;
                  case ElemStageKind::MulConst: {
                    const float* m = stageRow(stage, r);
                    if (useAvx2)
                        avx2::mulAccumulateSpan(v, m, gar, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            gar[i] += v[i] * m[i];
                    break;
                  }
                  default: // Add stages: identity Jacobian
                    if (useAvx2)
                        avx2::addSpan(gar, v, gar, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            gar[i] += v[i];
                    break;
                }
            }
        });
}

void
dotRowsInto(const Tensor& a, const std::vector<float>& u, Tensor& out)
{
    const float* uv = u.data();
    parallelChunks(a.rows(), rowGrain(a.cols()),
                   [&](std::size_t begin, std::size_t end) {
                       for (std::size_t r = begin; r < end; ++r) {
                           const float* __restrict x = a.row(r);
                           float acc = 0.0f;
                           for (std::size_t i = 0; i < a.cols(); ++i)
                               acc += x[i] * uv[i];
                           out.at(r, 0) = acc;
                       }
                   });
}

void
sumAllInto(const Tensor& a, Tensor& out)
{
    out.at(0, 0) = static_cast<float>(a.sum());
}

void
segmentSoftmaxInto(const Tensor& a, const SegmentIndex& segs, Tensor& out)
{
    // Columns outside every segment are never written; zero them only
    // when the segments are not a full partition so reused buffers match
    // the zeros a fresh tensor would carry.
    if (segs.items.size() != a.cols())
        out.fill(0.0f);
    const std::size_t numSegments = segs.numSegments();

    // Cross-seed AVX2: 8 seed rows become the lanes of one pass over
    // the segment structure (polynomial expf; few-ULP vs std::exp).
    const std::size_t groups =
        simd::avx2Active() ? a.rows() / 8 : std::size_t{0};
    if (groups > 0) {
        util::ThreadPool::global().parallelFor(
            0, groups, 1, [&](std::size_t g) {
                avx2::segmentSoftmax8(a.row(g * 8), out.row(g * 8),
                                      a.cols(), segs.offsets.data(),
                                      numSegments, segs.items.data());
            });
    }

    const std::size_t remBegin = groups * 8;
    parallelChunks(
        a.rows() - remBegin, rowGrain(a.cols()),
        [&](std::size_t chunkBegin, std::size_t chunkEnd) {
            for (std::size_t r = remBegin + chunkBegin;
                 r < remBegin + chunkEnd; ++r) {
                const float* x = a.row(r);
                float* o = out.row(r);
                for (std::size_t s = 0; s < numSegments; ++s) {
                    const std::uint32_t begin = segs.offsets[s];
                    const std::uint32_t end = segs.offsets[s + 1];
                    if (begin == end)
                        continue;
                    float maxVal = -std::numeric_limits<float>::infinity();
                    for (std::uint32_t e = begin; e < end; ++e)
                        maxVal = std::max(maxVal, x[segs.items[e]]);
                    float denom = 0.0f;
                    for (std::uint32_t e = begin; e < end; ++e) {
                        const float ev = std::exp(x[segs.items[e]] - maxVal);
                        o[segs.items[e]] = ev;
                        denom += ev;
                    }
                    const float inv = 1.0f / denom;
                    for (std::uint32_t e = begin; e < end; ++e)
                        o[segs.items[e]] *= inv;
                }
            }
        });
}

namespace {

/** Seed-lane copy of `lanes` rows of `cols` floats: out[c * lanes + l]
 *  = rows[l * cols + c]. */
void
toLanes(const float* rows, std::size_t cols, std::size_t lanes, float* out)
{
    for (std::size_t c = 0; c < cols; ++c)
        for (std::size_t l = 0; l < lanes; ++l)
            out[c * lanes + l] = rows[l * cols + c];
}

/** Inverse of toLanes. */
void
fromLanes(const float* in, std::size_t cols, std::size_t lanes, float* rows)
{
    for (std::size_t c = 0; c < cols; ++c)
        for (std::size_t l = 0; l < lanes; ++l)
            rows[l * cols + c] = in[c * lanes + l];
}

/** The root one-hot q0, in seed-lane layout. */
void
rootOneHot(float* q, std::size_t classes, std::uint32_t root,
           std::size_t lanes)
{
    std::fill(q, q + classes * lanes, 0.0f);
    std::fill(q + root * lanes, q + (root + 1) * lanes, 1.0f);
}

/** out = cp * q[class] over all nodes (Eq. 5), lane by lane. */
void
nodesTimesClass(const avx2::PropagateLanes& group, std::size_t lanes,
                const float* cp, const float* q, float* out)
{
    for (std::size_t i = 0; i < group.nodes; ++i) {
        const float* qc = q + group.node2class[i] * lanes;
        for (std::size_t l = 0; l < lanes; ++l)
            out[i * lanes + l] = cp[i * lanes + l] * qc[l];
    }
}

/**
 * Mul backward of p = cp * q[class]: gcp += gp * q[class] and, unless
 * gq is null, gq (zeroed first) += gp * cp gathered in node order.
 */
void
mulBackward(const avx2::PropagateLanes& group, std::size_t lanes,
            const float* cp, const float* gp, const float* q, float* gcp,
            float* gq)
{
    if (gq != nullptr)
        std::fill(gq, gq + group.classes * lanes, 0.0f);
    for (std::size_t i = 0; i < group.nodes; ++i) {
        const std::size_t c = group.node2class[i] * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
            const float g = gp[i * lanes + l];
            gcp[i * lanes + l] += g * q[c + l];
            if (gq != nullptr)
                gq[c + l] += g * cp[i * lanes + l];
        }
    }
}

/** dL/dq of class s, lane l, through the root-pinning chain (g *
 *  notRoot), then the hybrid average's 0.5. */
float
chainGrad(const avx2::PropagateLanes& group, std::size_t lanes,
          const float* gq, std::size_t s, std::size_t l)
{
    const float base = gq[s * lanes + l] * (s == group.root ? 0.0f : 1.0f);
    return group.product && group.max ? 0.5f * base : base;
}

/** The generic forward of one group of `lanes` seeds (any width up to
 *  8); avx2::propagateForward8 is its 8-lane twin. */
void
propagateForwardLanes(const avx2::PropagateLanes& group, std::size_t lanes,
                      const float* cp, float* p)
{
    const std::size_t n = group.nodes;
    const std::size_t m = group.classes;
    const avx2::PropagateScratch scratch(group, lanes);
    float* cpLanes = scratch.cp;
    float* pLanes = scratch.p;
    float* q0 = scratch.q0;
    toLanes(cp, n, lanes, cpLanes);
    rootOneHot(q0, m, group.root, lanes);
    const float* qIn = q0;
    for (std::size_t t = 0; t < group.rounds; ++t) {
        float* qOut = group.saved + t * m * lanes;
        float* argOut = group.saved + (group.rounds + t) * m * lanes;
        nodesTimesClass(group, lanes, cpLanes, qIn, pLanes);
        for (std::size_t s = 0; s < m; ++s) {
            const std::uint32_t begin = group.offsets[s];
            const std::uint32_t end = group.offsets[s + 1];
            float prod[8];
            float best[8];
            float pos[8];
            for (std::size_t l = 0; l < lanes; ++l) {
                prod[l] = 1.0f;
                best[l] = -std::numeric_limits<float>::infinity();
                pos[l] = 0.0f;
            }
            for (std::uint32_t e = begin; e < end; ++e) {
                const float* x = pLanes + group.items[e] * lanes;
                for (std::size_t l = 0; l < lanes; ++l) {
                    if (group.product)
                        prod[l] *= (1.0f - x[l]); // Eq. (6)
                    if (group.max && x[l] > best[l]) { // Eq. (7)
                        best[l] = x[l];
                        pos[l] = static_cast<float>(e - begin);
                    }
                }
            }
            const float notRoot = s == group.root ? 0.0f : 1.0f;
            const float rootMask = s == group.root ? 1.0f : 0.0f;
            for (std::size_t l = 0; l < lanes; ++l) {
                if (begin == end) {
                    best[l] = 0.0f;
                    pos[l] = -1.0f;
                }
                float q = best[l];
                if (group.product) {
                    float ind = -1.0f * prod[l];
                    ind = ind + 1.0f;
                    q = ind;
                    if (group.max) {
                        q = ind + best[l];
                        q = 0.5f * q;
                    }
                }
                q = q * notRoot;
                q = q + rootMask;
                qOut[s * lanes + l] = q;
                if (group.max)
                    argOut[s * lanes + l] = pos[l];
            }
        }
        qIn = qOut;
    }
    nodesTimesClass(group, lanes, cpLanes, qIn, pLanes);
    fromLanes(pLanes, n, lanes, p);
}

/** The generic backward of one group of `lanes` seeds;
 *  avx2::propagateBackward8 is its 8-lane twin. */
void
propagateBackwardLanes(const avx2::PropagateLanes& group, std::size_t lanes,
                       const float* cp, const float* g, float* gcp)
{
    const std::size_t n = group.nodes;
    const std::size_t m = group.classes;
    const std::size_t span = group.longest + 1;
    const avx2::PropagateScratch scratch(group, lanes);
    float* cpLanes = scratch.cp;
    float* pLanes = scratch.p;
    float* gpLanes = scratch.gp;
    float* gcpLanes = scratch.gcp;
    float* q0 = scratch.q0;
    float* gq = scratch.gq;
    float* prefix = scratch.prefix;
    float* suffix = scratch.suffix;
    toLanes(cp, n, lanes, cpLanes);
    toLanes(gcp, n, lanes, gcpLanes);
    toLanes(g, n, lanes, gpLanes);
    rootOneHot(q0, m, group.root, lanes);

    // The final p = cp * q[class], then the rounds in reverse.
    const std::size_t stride = m * lanes;
    mulBackward(group, lanes, cpLanes, gpLanes,
                group.rounds ? group.saved + (group.rounds - 1) * stride
                             : q0,
                gcpLanes, group.rounds ? gq : nullptr);
    for (std::size_t t = group.rounds; t-- > 0;) {
        const float* qIn = t ? group.saved + (t - 1) * stride : q0;
        const float* arg = group.saved + (group.rounds + t) * stride;
        nodesTimesClass(group, lanes, cpLanes, qIn, pLanes);
        std::fill(gpLanes, gpLanes + n * lanes, 0.0f);
        // All max contributions to dL/dp first, then all
        // product-complement ones, as the unrolled ops accumulated.
        if (group.max) {
            for (std::size_t s = 0; s < m; ++s) {
                for (std::size_t l = 0; l < lanes; ++l) {
                    const float pos = arg[s * lanes + l];
                    if (pos < 0.0f)
                        continue; // no parents
                    const std::uint32_t item =
                        group.items[group.offsets[s] +
                                    static_cast<std::uint32_t>(pos)];
                    gpLanes[item * lanes + l] +=
                        chainGrad(group, lanes, gq, s, l);
                }
            }
        }
        if (group.product) {
            for (std::size_t s = 0; s < m; ++s) {
                const std::uint32_t* seg = group.items + group.offsets[s];
                const std::size_t len =
                    group.offsets[s + 1] - group.offsets[s];
                if (len == 0)
                    continue;
                for (std::size_t l = 0; l < lanes; ++l) {
                    const float gs = -1.0f * chainGrad(group, lanes, gq, s, l);
                    float* pre = prefix + l * span;
                    float* suf = suffix + l * span;
                    pre[0] = 1.0f;
                    for (std::size_t e = 0; e < len; ++e)
                        pre[e + 1] =
                            pre[e] * (1.0f - pLanes[seg[e] * lanes + l]);
                    suf[len] = 1.0f;
                    for (std::size_t e = len; e > 0; --e)
                        suf[e - 1] =
                            suf[e] * (1.0f - pLanes[seg[e - 1] * lanes + l]);
                    // d/dp_e prod (1 - p_k) = -prod_{k != e} (1 - p_k)
                    for (std::size_t e = 0; e < len; ++e)
                        gpLanes[seg[e] * lanes + l] +=
                            gs * (-pre[e] * suf[e + 1]);
                }
            }
        }
        mulBackward(group, lanes, cpLanes, gpLanes, qIn, gcpLanes,
                    t > 0 ? gq : nullptr);
    }
    fromLanes(gcpLanes, n, lanes, gcp);
}

/** A propagation's structure as the group kernels read it; each group
 *  then points saved and scratch at its own rows. */
avx2::PropagateLanes
laneGroups(const PropagateSpec& spec)
{
    avx2::PropagateLanes group;
    group.node2class = spec.node2class->data();
    group.nodes = spec.numNodes();
    group.offsets = spec.parents->offsets.data();
    group.items = spec.parents->items.data();
    group.classes = spec.numClasses();
    group.longest = spec.parents->maxSegmentSize();
    group.root = spec.root;
    group.rounds = spec.rounds;
    group.product = spec.assumption != Assumption::Correlated;
    group.max = spec.assumption != Assumption::Independent;
    group.saved = nullptr;
    group.scratch = nullptr;
    return group;
}

/**
 * Runs body(first, lanes) once per seed group of `rows`: groups of 8,
 * then one of the rows mod 8 left over. One pool task per group.
 */
template <typename Body>
void
forEachSeedGroup(std::size_t rows, Body&& body)
{
    util::ThreadPool::global().parallelFor(
        0, (rows + 7) / 8, 1, [&](std::size_t grp) {
            const std::size_t first = grp * 8;
            body(first, std::min<std::size_t>(8, rows - first));
        });
}

} // namespace

std::size_t
propagateSavedCols(const PropagateSpec& spec)
{
    const bool max = spec.assumption != Assumption::Independent;
    return spec.rounds * spec.numClasses() * (max ? 2 : 1);
}

std::size_t
propagateScratchCols(const PropagateSpec& spec)
{
    return avx2::propagateScratchPerLane(spec.numNodes(), spec.numClasses(),
                                         spec.parents->maxSegmentSize());
}

void
propagateInto(const Tensor& cp, const PropagateSpec& spec, Tensor& p,
              Tensor& saved, Tensor& scratch)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t scratchCols = propagateScratchCols(spec);
    SMOOTHE_DCHECK(scratch.size() >= cp.rows() * scratchCols,
                   "propagate: scratch too small");
    const avx2::PropagateLanes groups = laneGroups(spec);
    forEachSeedGroup(cp.rows(), [&](std::size_t first, std::size_t lanes) {
        avx2::PropagateLanes group = groups;
        group.saved = saved.row(first);
        group.scratch = scratch.data() + first * scratchCols;
        if (useAvx2 && lanes == 8)
            avx2::propagateForward8(group, cp.row(first), p.row(first));
        else
            propagateForwardLanes(group, lanes, cp.row(first),
                                  p.row(first));
    });
}

void
propagateGradInto(const Tensor& cp, const PropagateSpec& spec,
                  const Tensor& g, const Tensor& saved, Tensor& gcp,
                  Tensor& scratch)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t scratchCols = propagateScratchCols(spec);
    SMOOTHE_DCHECK(scratch.size() >= cp.rows() * scratchCols,
                   "propagate: scratch too small");
    const avx2::PropagateLanes groups = laneGroups(spec);
    forEachSeedGroup(cp.rows(), [&](std::size_t first, std::size_t lanes) {
        avx2::PropagateLanes group = groups;
        // The backward kernels only read saved; the view type is shared
        // with the forward pass, which writes it.
        group.saved = const_cast<float*>(saved.row(first));
        group.scratch = scratch.data() + first * scratchCols;
        if (useAvx2 && lanes == 8)
            avx2::propagateBackward8(group, cp.row(first), g.row(first),
                                     gcp.row(first));
        else
            propagateBackwardLanes(group, lanes, cp.row(first),
                                   g.row(first), gcp.row(first));
    });
}

void
propagatedClassesInto(const PropagateSpec& spec, const Tensor& saved,
                      Tensor& q)
{
    const std::size_t m = spec.numClasses();
    for (std::size_t first = 0; first < q.rows(); first += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, q.rows() - first);
        std::vector<float> q0(m * lanes);
        rootOneHot(q0.data(), m, spec.root, lanes);
        const float* last =
            spec.rounds ? saved.row(first) + (spec.rounds - 1) * m * lanes
                        : q0.data();
        fromLanes(last, m, lanes, q.row(first));
    }
}

void
matmulInto(const Tensor& a, const Tensor& w, Tensor& out)
{
    // ikj order with restrict pointers for vectorizable inner loop,
    // parallel over output rows (each task owns disjoint rows). The
    // accumulation needs a zeroed destination.
    out.fill(0.0f);
    parallelChunks(
        a.rows(), rowGrain(a.cols() * w.cols()),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t b = begin; b < end; ++b) {
                const float* __restrict aRow = a.row(b);
                float* __restrict oRow = out.row(b);
                for (std::size_t k = 0; k < a.cols(); ++k) {
                    const float av_k = aRow[k];
                    if (av_k == 0.0f)
                        continue;
                    const float* __restrict wRow = w.row(k);
                    for (std::size_t h = 0; h < w.cols(); ++h)
                        oRow[h] += av_k * wRow[h];
                }
            }
        });
}

void
addRowBroadcastInto(const Tensor& a, const Tensor& bias, Tensor& out)
{
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const float* x = a.row(r);
        const float* m = bias.row(0);
        float* o = out.row(r);
        for (std::size_t i = 0; i < a.cols(); ++i)
            o[i] = x[i] + m[i];
    }
}

void
scatterMatrixInto(const Tensor& a, const std::vector<MatrixEntry>& entries,
                  std::size_t dim, bool mean_over_rows, Tensor& out)
{
    (void)dim;
    out.fill(0.0f);
    if (mean_over_rows) {
        const float inv =
            a.rows() ? 1.0f / static_cast<float>(a.rows()) : 0.0f;
        float* o = out.row(0);
        for (const MatrixEntry& entry : entries) {
            float acc = 0.0f;
            for (std::size_t r = 0; r < a.rows(); ++r)
                acc += a.at(r, entry.column);
            o[entry.position] += acc * inv;
        }
    } else {
        parallelChunks(a.rows(), rowGrain(entries.size()),
                       [&](std::size_t begin, std::size_t end) {
                           for (std::size_t r = begin; r < end; ++r) {
                               const float* x = a.row(r);
                               float* o = out.row(r);
                               for (const MatrixEntry& entry : entries)
                                   o[entry.position] += x[entry.column];
                           }
                       });
    }
}

} // namespace smoothe::tensor
