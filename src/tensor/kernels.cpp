#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

namespace smoothe::tensor {

namespace {

/**
 * Row elements per block when a fused chain runs stage by stage: small
 * enough that a block's stage operands stay in L1.
 */
constexpr std::size_t kChainBlock = 1024;

/** Row r, from column b0, of a MulConst/AddConst stage's operand (a
 *  1 x C operand broadcasts over rows). */
const float*
stageRow(const ElemStage& stage, std::size_t r, std::size_t b0)
{
    const Tensor& c = stage.c;
    return c.row(c.rows() == 1 ? 0 : r) + b0;
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
elemChainInto(const Tensor& a, const std::vector<ElemStage>& stages,
              Tensor& out)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t cols = a.cols();
    parallelChunks(
        a.rows(), rowGrain(cols),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
                // Stage by stage over cache-sized blocks of the row: the
                // first stage reads the input, later ones rewrite `out`
                // in place. Each element still sees one rounded op per
                // stage, in recorded order.
                for (std::size_t b0 = 0; b0 < cols; b0 += kChainBlock) {
                    const std::size_t n = std::min(kChainBlock, cols - b0);
                    const float* x = a.row(r) + b0;
                    float* o = out.row(r) + b0;
                    for (const ElemStage& stage : stages) {
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
                            const float* c = stageRow(stage, r, b0);
                            if (useAvx2)
                                avx2::mulSpan(x, c, o, n);
                            else
                                for (std::size_t i = 0; i < n; ++i)
                                    o[i] = x[i] * c[i];
                            break;
                          }
                          case ElemStageKind::AddConst: {
                            const float* c = stageRow(stage, r, b0);
                            if (useAvx2)
                                avx2::addSpan(x, c, o, n);
                            else
                                for (std::size_t i = 0; i < n; ++i)
                                    o[i] = x[i] + c[i];
                            break;
                          }
                        }
                        x = o;
                    }
                }
            }
        });
}

void
elemChainGradInto(const Tensor& g, const std::vector<ElemStage>& stages,
                  Tensor& ga)
{
    const bool useAvx2 = simd::avx2Active();
    const std::size_t cols = g.cols();
    parallelChunks(
        g.rows(), rowGrain(cols),
        [&](std::size_t begin, std::size_t end) {
            float scratch[kChainBlock];
            for (std::size_t r = begin; r < end; ++r) {
                for (std::size_t b0 = 0; b0 < cols; b0 += kChainBlock) {
                    const std::size_t n = std::min(kChainBlock, cols - b0);
                    const float* v = g.row(r) + b0;
                    for (std::size_t s = stages.size(); s > 0; --s) {
                        const ElemStage& stage = stages[s - 1];
                        if (stage.kind == ElemStageKind::Scale) {
                            if (useAvx2)
                                avx2::scaleSpan(v, stage.alpha, scratch, n);
                            else
                                for (std::size_t i = 0; i < n; ++i)
                                    scratch[i] = stage.alpha * v[i];
                        } else if (stage.kind == ElemStageKind::MulConst) {
                            const float* m = stageRow(stage, r, b0);
                            if (useAvx2)
                                avx2::mulSpan(v, m, scratch, n);
                            else
                                for (std::size_t i = 0; i < n; ++i)
                                    scratch[i] = v[i] * m[i];
                        } else {
                            continue; // Add stages: identity Jacobian
                        }
                        v = scratch;
                    }
                    float* gar = ga.row(r) + b0;
                    if (useAvx2)
                        avx2::addSpan(gar, v, gar, n);
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            gar[i] += v[i];
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

void
segmentProductComplementInto(const Tensor& a, const SegmentIndex& segs,
                             Tensor& out)
{
    const std::size_t numSegments = segs.numSegments();

    // Cross-seed AVX2: per-lane product order matches the generic loop,
    // so the two variants are bit-identical.
    const std::size_t groups =
        simd::avx2Active() ? a.rows() / 8 : std::size_t{0};
    if (groups > 0) {
        util::ThreadPool::global().parallelFor(
            0, groups, 1, [&](std::size_t g) {
                avx2::segmentProductComplement8(
                    a.row(g * 8), a.cols(), out.row(g * 8), out.cols(),
                    segs.offsets.data(), numSegments, segs.items.data());
            });
    }

    const std::size_t remBegin = groups * 8;
    parallelChunks(
        a.rows() - remBegin, rowGrain(numSegments),
        [&](std::size_t chunkBegin, std::size_t chunkEnd) {
            for (std::size_t r = remBegin + chunkBegin;
                 r < remBegin + chunkEnd; ++r) {
                const float* x = a.row(r);
                float* o = out.row(r);
                for (std::size_t s = 0; s < numSegments; ++s) {
                    float prod = 1.0f;
                    for (std::uint32_t e = segs.offsets[s];
                         e < segs.offsets[s + 1]; ++e)
                        prod *= (1.0f - x[segs.items[e]]);
                    o[s] = prod;
                }
            }
        });
}

std::size_t
segmentProductComplementGradScratch(std::size_t rows, std::size_t cols,
                                    const SegmentIndex& segs)
{
    return (rows / 8) * avx2::segmentProductComplementBackward8Scratch(
                            cols, segs.numSegments(), segs.maxSegmentSize());
}

void
segmentProductComplementGradInto(const Tensor& x, const SegmentIndex& segs,
                                 const Tensor& g, Tensor& ga,
                                 std::vector<float>& scratch)
{
    const std::size_t numSegments = segs.numSegments();
    const std::size_t longest = segs.maxSegmentSize();

    // Cross-seed AVX2: each group owns its 8 ga rows and its slice of
    // scratch, and every lane repeats the scalar loop's rounded ops.
    const std::size_t groups =
        simd::avx2Active() ? x.rows() / 8 : std::size_t{0};
    if (groups > 0) {
        const std::size_t span =
            avx2::segmentProductComplementBackward8Scratch(
                x.cols(), numSegments, longest);
        if (scratch.size() < groups * span)
            scratch.resize(groups * span);
        util::ThreadPool::global().parallelFor(
            0, groups, 1, [&](std::size_t grp) {
                avx2::segmentProductComplementBackward8(
                    x.row(grp * 8), ga.row(grp * 8), x.cols(),
                    g.row(grp * 8), segs.offsets.data(),
                    numSegments, segs.items.data(), longest,
                    scratch.data() + grp * span);
            });
    }

    const std::size_t remBegin = groups * 8;
    parallelChunks(
        x.rows() - remBegin, rowGrain(x.cols()),
        [&](std::size_t chunkBegin, std::size_t chunkEnd) {
            // Per-chunk scratch: rows in other chunks run concurrently.
            std::vector<float> prefix(longest + 1);
            std::vector<float> suffix(longest + 1);
            for (std::size_t r = remBegin + chunkBegin;
                 r < remBegin + chunkEnd; ++r) {
                const float* xr = x.row(r);
                const float* gr = g.row(r);
                float* gar = ga.row(r);
                for (std::size_t s = 0; s < numSegments; ++s) {
                    const std::uint32_t* seg =
                        segs.items.data() + segs.offsets[s];
                    const std::size_t len = segs.segmentSize(s);
                    if (len == 0)
                        continue;
                    prefix[0] = 1.0f;
                    for (std::size_t e = 0; e < len; ++e)
                        prefix[e + 1] = prefix[e] * (1.0f - xr[seg[e]]);
                    suffix[len] = 1.0f;
                    for (std::size_t e = len; e > 0; --e)
                        suffix[e - 1] =
                            suffix[e] * (1.0f - xr[seg[e - 1]]);
                    // d/dx_e prod (1 - x_k) = -prod_{k!=e} (1 - x_k)
                    for (std::size_t e = 0; e < len; ++e)
                        gar[seg[e]] += gr[s] * (-prefix[e] * suffix[e + 1]);
                }
            }
        });
}

void
segmentMaxGatherInto(const Tensor& a, const SegmentIndex& segs, Tensor& out,
                     std::vector<std::uint32_t>& arg_out)
{
    const std::size_t numSegments = segs.numSegments();
    arg_out.assign(a.rows() * numSegments,
                   std::numeric_limits<std::uint32_t>::max());

    // Cross-seed AVX2: compares and blends only, so bit-identical.
    const std::size_t groups =
        simd::avx2Active() ? a.rows() / 8 : std::size_t{0};
    if (groups > 0) {
        util::ThreadPool::global().parallelFor(
            0, groups, 1, [&](std::size_t g) {
                avx2::segmentMaxGather8(
                    a.row(g * 8), a.cols(), out.row(g * 8), out.cols(),
                    arg_out.data() + g * 8 * numSegments,
                    segs.offsets.data(), numSegments, segs.items.data());
            });
    }

    const std::size_t remBegin = groups * 8;
    parallelChunks(
        a.rows() - remBegin, rowGrain(numSegments),
        [&](std::size_t chunkBegin, std::size_t chunkEnd) {
            for (std::size_t r = remBegin + chunkBegin;
                 r < remBegin + chunkEnd; ++r) {
                const float* x = a.row(r);
                float* o = out.row(r);
                for (std::size_t s = 0; s < numSegments; ++s) {
                    const std::uint32_t begin = segs.offsets[s];
                    const std::uint32_t end = segs.offsets[s + 1];
                    if (begin == end) {
                        o[s] = 0.0f;
                        continue;
                    }
                    float best = -std::numeric_limits<float>::infinity();
                    std::uint32_t arg = segs.items[begin];
                    for (std::uint32_t e = begin; e < end; ++e) {
                        const float v = x[segs.items[e]];
                        if (v > best) {
                            best = v;
                            arg = segs.items[e];
                        }
                    }
                    o[s] = best;
                    arg_out[r * numSegments + s] = arg;
                }
            }
        });
}

void
gatherColsInto(const Tensor& a, const std::vector<std::uint32_t>& index,
               Tensor& out)
{
    const bool useAvx2 = simd::avx2Active();
    parallelChunks(a.rows(), rowGrain(index.size()),
                   [&](std::size_t begin, std::size_t end) {
                       for (std::size_t r = begin; r < end; ++r) {
                           const float* x = a.row(r);
                           float* o = out.row(r);
                           if (useAvx2) {
                               avx2::gatherColsRow(x, index.data(), o,
                                                   index.size());
                               continue;
                           }
                           for (std::size_t i = 0; i < index.size(); ++i)
                               o[i] = x[index[i]];
                       }
                   });
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
