/**
 * @file
 * Micro-benchmarks for the tensor/autodiff kernels that dominate
 * SmoothE's runtime: segment softmax, phi's propagation, the matrix
 * exponential, a full backward pass, and one complete optimizer
 * iteration on both the eager-tape and compiled-program paths. Runs on
 * the shared bench harness (--repeat/--warmup, obs::Report output)
 * instead of a paper figure; the deterministic arena/plan measurements
 * gate the CI perf job.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "autodiff/matexp.hpp"
#include "autodiff/program.hpp"
#include "autodiff/tape.hpp"
#include "bench/common.hpp"
#include "obs/profiler.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace st = smoothe::tensor;
namespace ad = smoothe::ad;
using namespace smoothe;

namespace {

st::SegmentIndex
uniformSegments(std::size_t items, std::size_t segments)
{
    std::vector<std::uint32_t> assignment(items);
    for (std::size_t i = 0; i < items; ++i)
        assignment[i] = static_cast<std::uint32_t>(i % segments);
    return st::SegmentIndex::fromAssignment(assignment, segments);
}

/** Problem sizes; --quick halves everything so CI stays fast. */
struct Sizes
{
    std::size_t items;
    std::size_t segments;
    std::size_t nodes;
    std::size_t classes;
    std::vector<std::size_t> expmDims;

    explicit Sizes(bool quick)
        : items(quick ? 4096 : 8192), segments(quick ? 1024 : 2048),
          nodes(quick ? 2048 : 4096), classes(quick ? 512 : 1024),
          expmDims(quick ? std::vector<std::size_t>{8, 32, 64}
                         : std::vector<std::size_t>{8, 32, 128})
    {}
};

/** The medium SmoothE-shaped iteration graph shared by the
 *  eager/compiled comparison and the backward-pass kernel. */
struct IterationFixture
{
    static constexpr std::size_t kBatch = 8;

    std::size_t nodes;
    std::size_t classes;
    st::SegmentIndex members;
    st::SegmentIndex parents;
    std::vector<std::uint32_t> node2class;
    std::vector<float> u;
    ad::Param theta;
    st::PropagateSpec spec;

    explicit IterationFixture(const Sizes& sizes)
        : nodes(sizes.nodes), classes(sizes.classes),
          members(uniformSegments(sizes.nodes, sizes.classes)),
          parents(uniformSegments(sizes.nodes, sizes.classes)),
          node2class(sizes.nodes), u(sizes.nodes, 1.0f),
          theta{ad::Tensor(kBatch, sizes.nodes)}
    {
        for (std::size_t i = 0; i < nodes; ++i)
            node2class[i] = static_cast<std::uint32_t>(i % classes);
        smoothe::util::Rng rng(5);
        for (std::size_t i = 0; i < theta.value.size(); ++i)
            theta.value.data()[i] = rng.uniformFloat();
        spec.node2class = &node2class;
        spec.parents = &parents;
        spec.root = 0;
        spec.rounds = 4;
        spec.assumption = st::Assumption::Independent;
    }

    ad::VarId
    build(ad::Tape& tape)
    {
        const auto cp = tape.segmentSoftmax(tape.leaf(&theta), &members);
        const auto p = tape.propagate(cp, spec);
        return tape.sumAll(tape.dotRowsConst(p, u));
    }
};

volatile float g_sink = 0.0f; ///< defeats dead-code elimination

void
sink(const float* data)
{
    g_sink = data[0];
}

} // namespace

int
main(int argc, char** argv)
{
    auto options = bench::BenchOptions::parse(argc, argv);
    const Sizes sizes(options.quick);
    obs::Report& report = *obs::Report::current();
    report.setRun("family", "micro_kernels");
    report.setRun("nodes", sizes.nodes);
    report.setRun("classes", sizes.classes);

    util::TablePrinter table({"kernel", "mean", "stddev", "min", "max"});
    const auto row = [&table](const std::string& name,
                              const bench::RepeatStats& stats) {
        table.addRow({name, util::formatSeconds(stats.mean) + "s",
                      util::formatSeconds(stats.stddev) + "s",
                      util::formatSeconds(stats.min) + "s",
                      util::formatSeconds(stats.max) + "s"});
    };
    const auto timeKernel = [&](const std::string& name, auto&& fn) {
        const auto stats = bench::repeatMeasure(name, options, fn);
        if (obs::Measurement* m = bench::findMeasurement(name))
            m->checked(false);
        row(name, stats);
        return stats;
    };

    // --- Segment softmax ---------------------------------------------
    {
        const auto segs = uniformSegments(sizes.items, sizes.segments);
        smoothe::util::Rng rng(2);
        ad::Tensor theta(8, sizes.items);
        for (std::size_t i = 0; i < theta.size(); ++i)
            theta.data()[i] = rng.uniformFloat();
        timeKernel("segment_softmax.vectorized", [&] {
            ad::Tape tape;
            const auto cp = tape.segmentSoftmax(tape.constant(theta), &segs);
            sink(tape.value(cp).data());
        });
    }

    // --- Phi's propagation: every round of the default Hybrid ---------
    {
        const auto parents = uniformSegments(sizes.items, sizes.segments);
        std::vector<std::uint32_t> node2class(sizes.items);
        for (std::size_t i = 0; i < sizes.items; ++i)
            node2class[i] = static_cast<std::uint32_t>(i % sizes.segments);
        st::PropagateSpec spec;
        spec.node2class = &node2class;
        spec.parents = &parents;
        spec.rounds = 4;
        smoothe::util::Rng rng(3);
        ad::Tensor cp(8, sizes.items);
        for (std::size_t i = 0; i < cp.size(); ++i)
            cp.data()[i] = 0.3f * rng.uniformFloat();
        timeKernel("propagate", [&] {
            ad::Tape tape;
            const auto out = tape.propagate(tape.constant(cp), spec);
            sink(tape.value(out).data());
        });
    }

    // --- Matrix exponential across sizes ------------------------------
    for (const std::size_t d : sizes.expmDims) {
        smoothe::util::Rng rng(4);
        std::vector<float> a(d * d);
        for (auto& v : a)
            v = 0.2f * rng.uniformFloat();
        std::vector<float> out(d * d);
        timeKernel("expm.d" + std::to_string(d), [&] {
            for (int i = 0; i < 4; ++i)
                ad::expm(a.data(), d, out.data());
            sink(out.data());
        });
    }
    {
        // The shape SmoothE's penalty feeds it: a nonnegative SCC
        // adjacency about 10% dense with ||A||_inf in the 2-7 range, so
        // the series runs at Taylor degree 24-46.
        constexpr std::size_t d = 64;
        smoothe::util::Rng rng(5);
        std::vector<float> a(d * d, 0.0f);
        for (auto& v : a)
            if (rng.bernoulli(0.1))
                v = rng.uniformFloat();
        std::vector<float> out(d * d);
        timeKernel("expm.scc.d64", [&] {
            for (int i = 0; i < 4; ++i)
                ad::expm(a.data(), d, out.data());
            sink(out.data());
        });
    }

    // --- Scalar vs AVX2 SIMD levels (same kernels) --------------------
    //
    // Pins simd::setLevel around otherwise identical timing loops so the
    // speedups isolate the AVX2 kernels from threading effects. Each
    // kernel runs its two levels in alternating pairs (after warmup
    // rounds of both), and its speedup is the median of the per-pair
    // scalar/AVX2 ratios, so a host slowdown lands on both halves of a
    // pair instead of on whichever level it happened to hit. Wall times
    // and per-kernel speedups are unchecked (they depend on the runner);
    // the gated quantity is the count of kernels meeting the 1.5x
    // floor, whose committed baseline entry encodes the "at least 2 of
    // 3" acceptance bar (mean 2, near-zero tolerance, higher-is-better).
    // Hosts without AVX2 skip the section entirely; the gate then
    // reports the checked floor entry as missing.
    report.setRun("simdDetected",
                  st::simd::levelName(st::simd::detectedLevel()));
    if (st::simd::detectedLevel() == st::simd::Level::Avx2) {
        const st::simd::Level saved = st::simd::activeLevel();
        const auto pairedSpeedup = [&](const std::string& kernel,
                                       auto&& fn) {
            const std::string scalarName = "simd." + kernel + ".scalar";
            const std::string avx2Name = "simd." + kernel + ".avx2";
            const auto [scalar, avx2] = bench::repeatMeasureInterleaved(
                scalarName, avx2Name, options.warmup, options.repeat,
                [&] {
                    st::simd::setLevel(st::simd::Level::Scalar);
                    fn();
                },
                [&] {
                    st::simd::setLevel(st::simd::Level::Avx2);
                    fn();
                });
            for (const std::string& name : {scalarName, avx2Name}) {
                if (obs::Measurement* m = bench::findMeasurement(name))
                    m->checked(false);
            }
            row(scalarName, scalar);
            row(avx2Name, avx2);
            return bench::medianPairRatio(scalar.samples, avx2.samples);
        };

        smoothe::util::Rng rng(6);
        const auto segs = uniformSegments(sizes.items, sizes.segments);
        st::Tensor theta(8, sizes.items);
        for (std::size_t i = 0; i < theta.size(); ++i)
            theta.data()[i] = rng.uniformFloat();
        st::Tensor softmaxOut(8, sizes.items);
        const auto softmaxRun = [&] {
            st::segmentSoftmaxInto(theta, segs, softmaxOut);
            sink(softmaxOut.data());
        };
        const double softmaxX = pairedSpeedup("softmax", softmaxRun);

        // One round of the default Hybrid propagation: p = cp * q, then
        // each class's product-complement and max over its parents.
        std::vector<std::uint32_t> node2class(sizes.items);
        for (std::size_t i = 0; i < sizes.items; ++i)
            node2class[i] = static_cast<std::uint32_t>(i % sizes.segments);
        st::PropagateSpec round;
        round.node2class = &node2class;
        round.parents = &segs;
        round.rounds = 1;
        st::Tensor propagateOut(8, sizes.items);
        st::Tensor propagateSaved(8, st::propagateSavedCols(round));
        st::Tensor propagateScratch(8, st::propagateScratchCols(round));
        const auto propagateRun = [&] {
            for (int i = 0; i < 8; ++i)
                st::propagateInto(theta, round, propagateOut,
                                  propagateSaved, propagateScratch);
            sink(propagateOut.data());
        };
        const double propagateX = pairedSpeedup("propagate", propagateRun);

        // A run of scale / add-scalar / mul-const / add-const ops, as a
        // Program replays it: four one-stage calls, each writing the
        // slot its input does not hold.
        std::vector<st::ElemStage> stages(4);
        stages[0].kind = st::ElemStageKind::Scale;
        stages[0].alpha = 1.0003f;
        stages[1].kind = st::ElemStageKind::AddScalar;
        stages[1].alpha = 0.25f;
        stages[2].kind = st::ElemStageKind::MulConst;
        stages[2].c = st::Tensor(1, sizes.items); // broadcast row
        for (std::size_t i = 0; i < stages[2].c.size(); ++i)
            stages[2].c.data()[i] = rng.uniformFloat();
        stages[3].kind = st::ElemStageKind::AddConst;
        stages[3].c = st::Tensor(8, sizes.items);
        for (std::size_t i = 0; i < stages[3].c.size(); ++i)
            stages[3].c.data()[i] = rng.uniformFloat();
        st::Tensor chainSlots[2] = {st::Tensor(8, sizes.items),
                                    st::Tensor(8, sizes.items)};
        const auto chainRun = [&] {
            for (int i = 0; i < 8; ++i) {
                st::elemChainInto(theta, stages[0], chainSlots[0]);
                for (std::size_t s = 1; s < stages.size(); ++s)
                    st::elemChainInto(chainSlots[(s - 1) % 2], stages[s],
                                      chainSlots[s % 2]);
            }
            sink(chainSlots[1].data());
        };
        const double chainX = pairedSpeedup("elem_chain", chainRun);
        st::simd::setLevel(saved);
        bench::reportScalar("simd.softmax.speedup", softmaxX, "x")
            ->higherIsBetter()
            .checked(false);
        bench::reportScalar("simd.propagate.speedup", propagateX, "x")
            ->higherIsBetter()
            .checked(false);
        bench::reportScalar("simd.elem_chain.speedup", chainX, "x")
            ->higherIsBetter()
            .checked(false);
        const double floorMet = (softmaxX >= 1.5 ? 1.0 : 0.0) +
                                (propagateX >= 1.5 ? 1.0 : 0.0) +
                                (chainX >= 1.5 ? 1.0 : 0.0);
        bench::reportScalar("simd.speedup_floor_met", floorMet)
            ->higherIsBetter()
            .tolerancePct(0.001);
        table.addSeparator();
        table.addRow({"simd softmax speedup (avx2/scalar)",
                      util::formatFixed(softmaxX, 2) + "x", "", "", ""});
        table.addRow({"simd propagation-round speedup",
                      util::formatFixed(propagateX, 2) + "x", "", "", ""});
        table.addRow({"simd elem-chain speedup",
                      util::formatFixed(chainX, 2) + "x", "", "", ""});
        table.addRow({"simd kernels meeting 1.5x floor",
                      util::formatFixed(floorMet, 0) + "/3", "", "", ""});
    }

    // --- SIMD dispatch-cost budget ------------------------------------
    //
    // Kernels pay one relaxed atomic load per call to pick their
    // variant (the check is hoisted out of the parallel loops). Time it
    // directly; the committed baseline entry encodes the 5 ns budget
    // (mean 5.0, near-zero tolerance), so the dispatch can never
    // silently grow into something visible at kernel-call granularity.
    {
        constexpr int kCalls = 1 << 20;
        const auto probe = timeKernel("simd.dispatch_probe", [&] {
            unsigned hits = 0;
            for (int i = 0; i < kCalls; ++i)
                hits += st::simd::avx2Active() ? 1u : 0u;
            g_sink = static_cast<float>(hits);
        });
        const double nsPerCall =
            probe.min / static_cast<double>(kCalls) * 1e9;
        bench::reportScalar("simd.dispatch_ns_per_call", nsPerCall, "ns")
            ->tolerancePct(0.001);
        table.addRow({"simd dispatch cost",
                      util::formatFixed(nsPerCall, 2) + "ns/call", "", "",
                      ""});
    }

    // --- Full backward pass on a fresh tape ---------------------------
    {
        IterationFixture fx(sizes);
        timeKernel("backward_pass", [&] {
            fx.theta.zeroGrad();
            ad::Tape tape;
            const auto loss = fx.build(tape);
            tape.backward(loss);
            sink(fx.theta.grad.data());
        });
    }

    // --- One optimizer iteration: eager tape vs compiled replay -------
    //
    // Wall times are recorded unchecked (runner-speed dependent); the
    // eager/compiled speedup is machine-relative and gated loosely, and
    // the arena/buffer-plan byte counts are fully deterministic for a
    // given --quick setting, so the CI perf gate checks them tightly.
    {
        IterationFixture fx(sizes);
        st::Arena eagerArena;
        const auto eager = timeKernel("iteration.eager", [&] {
            fx.theta.zeroGrad();
            ad::Tape tape(&eagerArena);
            const auto loss = fx.build(tape);
            tape.backward(loss);
            sink(fx.theta.grad.data());
        });

        st::Arena compiledArena;
        ad::Tape recorder(&compiledArena);
        const auto loss = fx.build(recorder);
        ad::Program program(std::move(recorder), loss);
        const auto compiled = timeKernel("iteration.compiled", [&] {
            fx.theta.zeroGrad();
            program.forward();
            program.backward();
            sink(fx.theta.grad.data());
        });

        const double speedup =
            compiled.mean > 0.0 ? eager.mean / compiled.mean : 0.0;
        bench::reportScalar("iteration.speedup", speedup, "x")
            ->higherIsBetter()
            .tolerancePct(40.0);
        bench::reportScalar("iteration.eager_arena_peak_bytes",
                            static_cast<double>(eagerArena.peak()), "B")
            ->tolerancePct(5.0);
        bench::reportScalar("iteration.compiled_arena_peak_bytes",
                            static_cast<double>(compiledArena.peak()), "B")
            ->tolerancePct(5.0);
        bench::reportScalar("iteration.planned_bytes",
                            static_cast<double>(
                                program.stats().plannedBytes),
                            "B")
            ->tolerancePct(5.0);
        bench::reportScalar("iteration.reuse_ratio",
                            program.stats().reuseRatio())
            ->higherIsBetter()
            .tolerancePct(10.0);
        table.addSeparator();
        table.addRow({"iteration speedup (eager/compiled)",
                      util::formatFixed(speedup, 2) + "x", "", "", ""});

        // --- disabled-profiler overhead gate ---------------------------
        // forward()/backward() differ from the Bare pair by one relaxed
        // atomic load and branch per call; CI gates that dispatch cost
        // below 1%. The profiler is forced off for this window (a
        // --profile flag may have enabled it) so the dispatching pair
        // never takes the instrumented path, then prior enablement is
        // restored. Both wall times are unchecked; the gated quantity
        // is their relative difference, the median of the per-pair
        // dispatch/bare ratios with the two replays timed in
        // alternation, so host drift lands on both halves of a pair.
        // Each sample spans 32 forward/backward replays so that a
        // sample's spread stays well under the 1% being measured.
        {
            constexpr int kReplaysPerSample = 32;
            const bool wasEnabled = obs::profilerEnabled();
            const std::size_t stride = obs::Profiler::instance().stride();
            obs::Profiler::instance().disable();
            const auto [bare, dispatch] = bench::repeatMeasureInterleaved(
                "profiler.replay_bare", "profiler.dispatch_disabled",
                options.warmup, options.repeat,
                [&] {
                    fx.theta.zeroGrad();
                    for (int i = 0; i < kReplaysPerSample; ++i) {
                        program.forwardBare();
                        program.backwardBare();
                    }
                    sink(fx.theta.grad.data());
                },
                [&] {
                    fx.theta.zeroGrad();
                    for (int i = 0; i < kReplaysPerSample; ++i) {
                        program.forward();
                        program.backward();
                    }
                    sink(fx.theta.grad.data());
                });
            for (const char* name :
                 {"profiler.replay_bare", "profiler.dispatch_disabled"}) {
                if (obs::Measurement* m = bench::findMeasurement(name))
                    m->checked(false);
            }
            row("profiler.replay_bare", bare);
            row("profiler.dispatch_disabled", dispatch);
            const double ratio =
                bench::medianPairRatio(dispatch.samples, bare.samples);
            const double overheadPct =
                ratio > 0.0 ? std::max(0.0, 100.0 * (ratio - 1.0)) : 0.0;
            // The committed baseline entry for this measurement encodes
            // the 1% budget itself (mean 1.0, near-zero tolerancePct),
            // so any candidate above 1.0 fails the CI perf gate; see
            // bench/baselines/micro_kernels.json.
            bench::reportScalar("profiler.disabled_overhead_pct",
                                overheadPct, "%")
                ->tolerancePct(0.001);
            table.addRow({"profiler disabled overhead",
                          util::formatFixed(overheadPct, 2) + "%", "",
                          "", ""});
            if (wasEnabled)
                obs::Profiler::instance().enable(stride);
        }

        // --- profiled demo replays -------------------------------------
        // A short instrumented window (stride 1) so the report's
        // profile section and any --profile-out flamegraph carry
        // per-kernel attribution even when the bench runs without
        // --profile; prior enablement is restored afterwards. On AVX2
        // hosts a second program is compiled and replayed at the other
        // SIMD level (the "@avx2" kernel-slot suffix is resolved when a
        // Program is compiled), so `smoothe_report profile` shows
        // scalar and AVX2 variants of each kernel side by side.
        {
            const bool wasEnabled = obs::profilerEnabled();
            if (!wasEnabled)
                obs::Profiler::instance().enable(1);
            for (int i = 0; i < 5; ++i) {
                fx.theta.zeroGrad();
                program.forward();
                program.backward();
                sink(fx.theta.grad.data());
            }
            if (st::simd::detectedLevel() == st::simd::Level::Avx2) {
                const st::simd::Level saved = st::simd::activeLevel();
                st::simd::setLevel(saved == st::simd::Level::Avx2
                                       ? st::simd::Level::Scalar
                                       : st::simd::Level::Avx2);
                st::Arena otherArena;
                ad::Tape other(&otherArena);
                const auto otherLoss = fx.build(other);
                ad::Program otherProgram(std::move(other), otherLoss);
                for (int i = 0; i < 5; ++i) {
                    fx.theta.zeroGrad();
                    otherProgram.forward();
                    otherProgram.backward();
                    sink(fx.theta.grad.data());
                }
                st::simd::setLevel(saved);
            }
            if (!wasEnabled)
                obs::Profiler::instance().disable();
        }
    }

    std::printf("bench_micro_kernels (quick=%d repeat=%zu warmup=%zu)\n",
                options.quick ? 1 : 0, options.repeat, options.warmup);
    table.print(std::cout);
    obs::flushCliTelemetry();
    return 0;
}
