#include "autodiff/exec.hpp"

#include <limits>
#include <vector>

#include "autodiff/matexp.hpp"
#include "check/contracts.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"

namespace smoothe::ad::exec {

using tensor::parallelChunks;
using tensor::rowGrain;

void
forwardOp(const ForwardArgs& args)
{
    const OpNode& node = args.node;
    switch (node.op) {
      case Op::Leaf:
      case Op::Constant:
      case Op::Input:
        break; // sources: value is bound, not computed
      case Op::Add:
        tensor::addInto(*args.a, *args.b, *args.value);
        break;
      case Op::Sub:
        tensor::subInto(*args.a, *args.b, *args.value);
        break;
      case Op::Mul:
        tensor::mulInto(*args.a, *args.b, *args.value);
        break;
      case Op::Scale:
        tensor::scaleInto(*args.a, node.alpha, *args.value);
        break;
      case Op::AddScalar:
        tensor::addScalarInto(*args.a, node.alpha, *args.value);
        break;
      case Op::Relu:
        tensor::reluInto(*args.a, *args.value);
        break;
      case Op::MulConst:
        tensor::mulConstInto(*args.a, node.constTensor, *args.value);
        break;
      case Op::AddConst:
        tensor::addConstInto(*args.a, node.constTensor, *args.value);
        break;
      case Op::FusedElemChain:
        tensor::elemChainInto(*args.a, node.chain, *args.value);
        break;
      case Op::DotRowsConst:
        tensor::dotRowsInto(*args.a, node.constVec, *args.value);
        break;
      case Op::SumAll:
        tensor::sumAllInto(*args.a, *args.value);
        break;
      case Op::MeanRows:
        tensor::meanRowsInto(*args.a, *args.value);
        break;
      case Op::SegmentSoftmax:
        tensor::segmentSoftmaxInto(*args.a, *node.segs, *args.value);
        break;
      case Op::SegmentProductComplement:
        tensor::segmentProductComplementInto(*args.a, *node.segs,
                                             *args.value);
        break;
      case Op::SegmentMaxGather:
        tensor::segmentMaxGatherInto(*args.a, *node.segs, *args.value,
                                     *args.savedIdx);
        break;
      case Op::GatherCols:
        tensor::gatherColsInto(*args.a, *node.index, *args.value);
        break;
      case Op::MatMul:
        tensor::matmulInto(*args.a, *args.b, *args.value);
        break;
      case Op::AddRowBroadcast:
        tensor::addRowBroadcastInto(*args.a, *args.b, *args.value);
        break;
      case Op::ScatterMatrix:
        tensor::scatterMatrixInto(*args.a, *node.entries, node.dim,
                                  node.meanOverRows, *args.value);
        break;
      case Op::TrExpm: {
        static obs::Counter& calls = obs::counter("kernel.matexp.calls");
        static obs::Counter& bytes = obs::counter("kernel.matexp.bytes");
        static obs::Counter& squarings =
            obs::counter("kernel.matexp.squarings");
        const Tensor& av = *args.a;
        calls.add(1);
        bytes.add(av.size() * sizeof(float));
        Tensor& out = *args.value;
        Tensor& saved = *args.saved;
        const std::size_t dim = node.dim;
        // Each row's power series is independent; one matrix per task
        // (each exponential is O(dim^3), far above any sensible grain).
        parallelChunks(
            av.rows(), 1, [&](std::size_t rowBegin, std::size_t rowEnd) {
                for (std::size_t r = rowBegin; r < rowEnd; ++r) {
                    squarings.add(static_cast<std::uint64_t>(
                        expm(av.row(r), dim, saved.row(r))));
                    double trace = 0.0;
                    for (std::size_t i = 0; i < dim; ++i)
                        trace += saved.at(r, i * dim + i);
                    out.at(r, 0) = static_cast<float>(trace);
                }
            });
        break;
      }
    }
}

void
backwardOp(const BackwardArgs& args)
{
    const OpNode& node = args.node;
    const Tensor& g = args.g;
    Tensor* const gaPtr = args.ga;
    Tensor* const gbPtr = args.gb;
    switch (node.op) {
      case Op::Leaf: {
        Tensor& pg = node.param->grad;
        SMOOTHE_DCHECK(pg.rows() == g.rows() && pg.cols() == g.cols(),
                       "leaf grad shape drifted");
        float* __restrict dst = pg.data();
        const float* __restrict src = g.data();
        for (std::size_t i = 0; i < g.size(); ++i)
            dst[i] += src[i];
        break;
      }
      case Op::Constant:
      case Op::Input:
        break;
      case Op::Add: {
        if (gaPtr) {
            Tensor& ga = *gaPtr;
            for (std::size_t i = 0; i < g.size(); ++i)
                ga.data()[i] += g.data()[i];
        }
        if (gbPtr) {
            Tensor& gb = *gbPtr;
            for (std::size_t i = 0; i < g.size(); ++i)
                gb.data()[i] += g.data()[i];
        }
        break;
      }
      case Op::Sub: {
        if (gaPtr) {
            Tensor& ga = *gaPtr;
            for (std::size_t i = 0; i < g.size(); ++i)
                ga.data()[i] += g.data()[i];
        }
        if (gbPtr) {
            Tensor& gb = *gbPtr;
            for (std::size_t i = 0; i < g.size(); ++i)
                gb.data()[i] -= g.data()[i];
        }
        break;
      }
      case Op::Mul: {
        if (gaPtr) {
            Tensor& ga = *gaPtr;
            const Tensor& bv = *args.b;
            for (std::size_t i = 0; i < g.size(); ++i)
                ga.data()[i] += g.data()[i] * bv.data()[i];
        }
        if (gbPtr) {
            Tensor& gb = *gbPtr;
            const Tensor& av = *args.a;
            for (std::size_t i = 0; i < g.size(); ++i)
                gb.data()[i] += g.data()[i] * av.data()[i];
        }
        break;
      }
      case Op::Scale: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        for (std::size_t i = 0; i < g.size(); ++i)
            ga.data()[i] += node.alpha * g.data()[i];
        break;
      }
      case Op::AddScalar: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        for (std::size_t i = 0; i < g.size(); ++i)
            ga.data()[i] += g.data()[i];
        break;
      }
      case Op::Relu: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const Tensor& ov = *args.value;
        for (std::size_t i = 0; i < g.size(); ++i) {
            if (ov.data()[i] > 0.0f)
                ga.data()[i] += g.data()[i];
        }
        break;
      }
      case Op::MulConst: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const Tensor& c = node.constTensor;
        for (std::size_t r = 0; r < g.rows(); ++r) {
            const float* m = c.row(c.rows() == 1 ? 0 : r);
            const float* gr = g.row(r);
            float* gar = ga.row(r);
            for (std::size_t i = 0; i < g.cols(); ++i)
                gar[i] += gr[i] * m[i];
        }
        break;
      }
      case Op::AddConst: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        for (std::size_t i = 0; i < g.size(); ++i)
            ga.data()[i] += g.data()[i];
        break;
      }
      case Op::FusedElemChain:
        if (gaPtr)
            tensor::elemChainGradInto(g, node.chain, *gaPtr);
        break;
      case Op::DotRowsConst: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        for (std::size_t r = 0; r < ga.rows(); ++r) {
            const float gr = g.at(r, 0);
            float* gar = ga.row(r);
            const float* u = node.constVec.data();
            for (std::size_t i = 0; i < ga.cols(); ++i)
                gar[i] += gr * u[i];
        }
        break;
      }
      case Op::SumAll: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const float gr = g.at(0, 0);
        for (std::size_t i = 0; i < ga.size(); ++i)
            ga.data()[i] += gr;
        break;
      }
      case Op::MeanRows: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const float inv =
            ga.rows() ? 1.0f / static_cast<float>(ga.rows()) : 0.0f;
        for (std::size_t r = 0; r < ga.rows(); ++r) {
            float* gar = ga.row(r);
            const float* gr = g.row(0);
            for (std::size_t i = 0; i < ga.cols(); ++i)
                gar[i] += gr[i] * inv;
        }
        break;
      }
      case Op::SegmentSoftmax: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const Tensor& y = *args.value;
        const SegmentIndex* segs = node.segs;
        parallelChunks(
            ga.rows(), rowGrain(ga.cols()),
            [&](std::size_t rowBegin, std::size_t rowEnd) {
                for (std::size_t r = rowBegin; r < rowEnd; ++r) {
                    const float* yr = y.row(r);
                    const float* gr = g.row(r);
                    float* gar = ga.row(r);
                    for (std::size_t s = 0; s < segs->numSegments(); ++s) {
                        const std::uint32_t begin = segs->offsets[s];
                        const std::uint32_t end = segs->offsets[s + 1];
                        if (begin == end)
                            continue;
                        float dot = 0.0f;
                        for (std::uint32_t e = begin; e < end; ++e) {
                            const std::uint32_t col = segs->items[e];
                            dot += gr[col] * yr[col];
                        }
                        for (std::uint32_t e = begin; e < end; ++e) {
                            const std::uint32_t col = segs->items[e];
                            gar[col] += yr[col] * (gr[col] - dot);
                        }
                    }
                }
            });
        break;
      }
      case Op::SegmentProductComplement:
        if (gaPtr)
            tensor::segmentProductComplementGradInto(
                *args.a, *node.segs, g, *gaPtr, *args.scratch);
        break;
      case Op::SegmentMaxGather: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const std::size_t numSegments = node.segs->numSegments();
        const auto& savedIdx = *args.savedIdx;
        for (std::size_t r = 0; r < ga.rows(); ++r) {
            const float* gr = g.row(r);
            float* gar = ga.row(r);
            for (std::size_t s = 0; s < numSegments; ++s) {
                const std::uint32_t arg = savedIdx[r * numSegments + s];
                if (arg != std::numeric_limits<std::uint32_t>::max())
                    gar[arg] += gr[s];
            }
        }
        break;
      }
      case Op::GatherCols: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const auto& index = *node.index;
        for (std::size_t r = 0; r < g.rows(); ++r) {
            const float* gr = g.row(r);
            float* gar = ga.row(r);
            for (std::size_t i = 0; i < index.size(); ++i)
                gar[index[i]] += gr[i];
        }
        break;
      }
      case Op::MatMul: {
        if (gaPtr) {
            // grad_a = g * w^T
            Tensor& ga = *gaPtr;
            const Tensor& wv = *args.b;
            for (std::size_t b = 0; b < ga.rows(); ++b) {
                const float* gr = g.row(b);
                float* gar = ga.row(b);
                for (std::size_t k = 0; k < ga.cols(); ++k) {
                    const float* wRow = wv.row(k);
                    float acc = 0.0f;
                    for (std::size_t h = 0; h < g.cols(); ++h)
                        acc += gr[h] * wRow[h];
                    gar[k] += acc;
                }
            }
        }
        if (gbPtr) {
            // grad_w = a^T * g
            Tensor& gw = *gbPtr;
            const Tensor& av = *args.a;
            for (std::size_t b = 0; b < av.rows(); ++b) {
                const float* aRow = av.row(b);
                const float* gr = g.row(b);
                for (std::size_t k = 0; k < av.cols(); ++k) {
                    const float a_bk = aRow[k];
                    if (a_bk == 0.0f)
                        continue;
                    float* gwRow = gw.row(k);
                    for (std::size_t h = 0; h < g.cols(); ++h)
                        gwRow[h] += a_bk * gr[h];
                }
            }
        }
        break;
      }
      case Op::AddRowBroadcast: {
        if (gaPtr) {
            Tensor& ga = *gaPtr;
            for (std::size_t r = 0; r < g.rows(); ++r) {
                const float* gr = g.row(r);
                float* gar = ga.row(r);
                for (std::size_t i = 0; i < g.cols(); ++i)
                    gar[i] += gr[i];
            }
        }
        if (gbPtr) {
            Tensor& gb = *gbPtr;
            for (std::size_t r = 0; r < g.rows(); ++r) {
                const float* gr = g.row(r);
                float* gbr = gb.row(0);
                for (std::size_t i = 0; i < g.cols(); ++i)
                    gbr[i] += gr[i];
            }
        }
        break;
      }
      case Op::ScatterMatrix: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        if (node.meanOverRows) {
            const float inv =
                ga.rows() ? 1.0f / static_cast<float>(ga.rows()) : 0.0f;
            const float* gr = g.row(0);
            for (const MatrixEntry& entry : *node.entries) {
                const float flow = gr[entry.position] * inv;
                for (std::size_t r = 0; r < ga.rows(); ++r)
                    ga.at(r, entry.column) += flow;
            }
        } else {
            for (std::size_t r = 0; r < ga.rows(); ++r) {
                const float* gr = g.row(r);
                float* gar = ga.row(r);
                for (const MatrixEntry& entry : *node.entries)
                    gar[entry.column] += gr[entry.position];
            }
        }
        break;
      }
      case Op::TrExpm: {
        if (!gaPtr)
            break;
        Tensor& ga = *gaPtr;
        const Tensor& saved = *args.saved;
        const std::size_t d = node.dim;
        parallelChunks(
            ga.rows(), 1,
            [&](std::size_t rowBegin, std::size_t rowEnd) {
                for (std::size_t r = rowBegin; r < rowEnd; ++r) {
                    const float gr = g.at(r, 0);
                    const float* e = saved.row(r);
                    float* gar = ga.row(r);
                    for (std::size_t i = 0; i < d; ++i) {
                        for (std::size_t j = 0; j < d; ++j)
                            gar[i * d + j] += gr * e[j * d + i];
                    }
                }
            });
        break;
      }
    }
}

} // namespace smoothe::ad::exec
