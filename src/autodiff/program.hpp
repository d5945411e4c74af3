/**
 * @file
 * Compiled autodiff program: record once, compile, replay many.
 *
 * A Program consumes a Tape that recorded one iteration of a
 * structurally stable computation and compiles it into
 *   (a) a topologically ordered op list (fusing back-to-back
 *       elementwise chains into single passes),
 *   (b) a static buffer plan that assigns every transient intermediate
 *       a reusable slot via liveness analysis (last-use frees), and
 *   (c) a precomputed backward schedule with per-step grad-slot zeroing.
 *
 * forward()/backward() then replay into the planned buffers with zero
 * per-iteration graph construction or allocation. Leaf values alias
 * their Param (so optimizer steps are visible on the next replay), and
 * named Input nodes stay mutable via setInputScalar — per-iteration
 * dynamic values (the lambda warmup ramp) without re-recording.
 *
 * Determinism: replay runs the exact same exec::forwardOp/backwardOp
 * kernels as the recording Tape, in the same order, with the same fixed
 * parallel grains, so results are bit-identical to rebuilding the tape
 * every iteration — at every thread count (see DESIGN.md "Compiled
 * execution plan").
 */

#ifndef SMOOTHE_AUTODIFF_PROGRAM_HPP
#define SMOOTHE_AUTODIFF_PROGRAM_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "autodiff/exec.hpp"
#include "autodiff/tape.hpp"
#include "obs/profiler.hpp"

namespace smoothe::ad {

/** Stable snake_case profiler name per op kind ("segment_softmax"). */
const char* kernelName(Op op);

/**
 * Ops whose forward kernel has an explicit AVX2 variant. Their profiler
 * slots get the simd::kernelSuffix() ("@avx2" when dispatched) so
 * `smoothe_report profile` shows scalar-vs-AVX2 rows side by side when
 * benches compile one Program per SIMD level; tests/test_simd.cpp holds
 * a scalar-vs-AVX2 parity case for every one of them.
 */
bool hasSimdVariant(Op op);

/**
 * Ops whose backward kernel dispatches to AVX2 code. Their profiler
 * slots keep the plain "backward.<op>" name; tests/test_simd.cpp holds
 * a scalar-vs-AVX2 parity case for every one of them too.
 */
bool hasSimdBackward(Op op);

/** Compile-time footprint of a Program's buffer plan. */
struct ProgramStats
{
    std::size_t ops = 0;          ///< scheduled forward ops
    std::size_t fusedOps = 0;     ///< elementwise pairs fused away
    std::size_t valueSlots = 0;   ///< reusable forward slots
    std::size_t gradSlots = 0;    ///< reusable backward slots
    std::size_t ownedBuffers = 0; ///< persistent buffers (outputs, saved
                                  ///< activations, constants)
    std::size_t plannedBytes = 0; ///< bytes held by the compiled plan
    std::size_t naiveBytes = 0;   ///< bytes an eager rebuild allocates
                                  ///< per iteration

    /** How much smaller the plan is than one eager iteration (>= 1). */
    double reuseRatio() const
    {
        return plannedBytes ? static_cast<double>(naiveBytes) /
                                  static_cast<double>(plannedBytes)
                            : 1.0;
    }
};

/**
 * Structure-growth descriptor for Program::patch.
 *
 * Describes how a recorded program's sparse structures grew between two
 * recordings of the *same* op sequence (same op kinds in the same order,
 * only wider). Pointer payloads (SegmentIndex, gather index vectors,
 * scatter entry lists) are not listed here: the recorded OpNodes hold
 * raw pointers into caller-owned containers, and the caller rebuilds
 * those containers in place (same object addresses, new contents)
 * before calling patch(), so the pointers stay valid by construction.
 * What patch() itself rewrites are the value payloads the plan copied
 * at record time, recognized by their structure:
 *
 *  - one-hot-per-row Constant nodes (a propagation seed) get
 *    `onehotRows`,
 *  - 1 x C broadcast payloads with a single 1 against zeros get
 *    `maskOneHot`; a single 0 against ones gets `maskComplement`
 *    (root masks in SmoothE programs),
 *  - DotRowsConst weight vectors whose length no longer matches their
 *    input get `rowWeights`,
 *  - ScatterMatrix ops take `scatterDims` positionally (id order);
 *    dependent TrExpm dims, their saved stashes, and the trace-penalty
 *    AddScalar bias (-dim * rows) are derived from them.
 *
 * Empty members mean "no replacement available": patch() keeps the old
 * payload when its shape still fits and reports failure otherwise.
 */
struct StructureDelta
{
    Tensor onehotRows;
    Tensor maskOneHot;
    Tensor maskComplement;
    std::vector<float> rowWeights;
    std::vector<std::size_t> scatterDims;
};

/** The compiled replayer. */
class Program
{
  public:
    /**
     * Compiles the recorded tape. The tape is consumed: its node
     * metadata and constant payloads are stolen, its transient tensors
     * released.
     *
     * @param tape recorder holding one fully recorded iteration
     * @param root the loss node backward() differentiates from
     * @param outputs extra nodes whose forward values stay readable via
     *        value() after replay (root always is)
     */
    Program(Tape&& tape, VarId root, std::vector<VarId> outputs = {});

    Program(Program&&) = default;
    Program& operator=(Program&&) = default;
    Program(const Program&) = delete;
    Program& operator=(const Program&) = delete;

    /** Replays the forward pass into the planned buffers. */
    void forward();

    /**
     * Replays the precomputed backward schedule, accumulating into every
     * reachable leaf's Param::grad. Call after forward(); the caller
     * zeroes Param grads, exactly as with Tape::backward.
     */
    void backward();

    /**
     * forward()/backward() minus the profiler dispatch: the bare replay
     * loops, bit-identical to the public pair (profiled replays run the
     * same kernels in the same order; only timestamps are added).
     * bench_micro_kernels times bare vs dispatching replays to gate the
     * disabled-profiler overhead below 1% in CI.
     */
    void forwardBare();
    void backwardBare();

    /** Writes a 1 x 1 Input slot recorded via Tape::input. */
    void setInputScalar(const std::string& name, float v);

    /** Whether the recording captured an Input slot with this name. */
    bool hasInput(const std::string& name) const
    {
        return inputs_.count(name) != 0;
    }

    /**
     * Forward value of a node after forward(). Only the root, requested
     * outputs, and sources are readable — everything else lives in a
     * reused slot and is transient.
     */
    const Tensor& value(VarId id) const;

    VarId root() const { return root_; }
    std::size_t numOps() const { return forwardSchedule_.size(); }
    const ProgramStats& stats() const { return stats_; }

    /**
     * Light structural validator for the compiled plan: schedules must
     * stay topological and every scheduled op's operands and grad slots
     * must be bound. @return std::nullopt when healthy.
     */
    std::optional<std::string> checkInvariants() const;

    /**
     * Patches the compiled plan in place after structure growth, instead
     * of re-recording and recompiling from scratch.
     *
     * Preconditions: every Leaf's Param was already resized to its new
     * shape, and every caller-owned container the recorded ops point at
     * (segment indexes, gather index vectors, scatter entry lists) was
     * rebuilt in place at its old address. patch() then re-infers every
     * node's shape from the sources, swaps recognized value payloads per
     * `delta`, resizes owned buffers / value slots / grad slots / saved
     * stashes, and refreshes the profiler cost estimates and footprint
     * stats. Schedules, fusion decisions, and slot assignments are kept
     * — that is what makes it cheap.
     *
     * @return true on success (counts `program.patch`). Returns false —
     * with the Program untouched — when the growth is not plan-
     * preserving: a reused slot's users disagree on their new shape, a
     * payload can no longer be recognized or no replacement was
     * provided, or operand shapes stop agreeing. The caller must then
     * fall back to a full re-record (and should count
     * `program.rerecord`).
     */
    bool patch(const StructureDelta& delta);

  private:
    /** Where a node's value (or grad) lives at replay time. */
    enum class Storage : std::uint8_t {
        None,  ///< never materialized (skipped node / no grad)
        Param, ///< aliases ops_[index].param->value
        Owned, ///< persistent buffer owned_[index]
        Slot,  ///< reusable slot (valueSlots_/gradSlots_[index])
    };
    struct Binding
    {
        Storage kind = Storage::None;
        std::uint32_t index = 0;
    };
    struct BackStep
    {
        VarId id = -1;
        /** Grad slots beginning a lifetime at this step: zeroed first. */
        std::vector<std::uint32_t> zeroSlots;
    };
    /**
     * Per-scheduled-op profiler attribution, resolved at compile time so
     * sampled replays update kernel accumulators lock-free. FLOPs/bytes
     * are static estimates from the snapshotted shapes.
     */
    struct KernelSlot
    {
        obs::Profiler::Kernel* kernel = nullptr;
        std::uint64_t flops = 0;
        std::uint64_t bytes = 0;
    };

    const Tensor* valuePtr(VarId id) const;
    Tensor* valueMut(VarId id);
    exec::ForwardArgs makeForwardArgs(VarId id);
    exec::BackwardArgs makeBackwardArgs(const BackStep& step);
    /** Boundary-sampled instrumented replays: one clock (and one perf)
     *  read per op boundary, so per-kernel self times sum to the phase
     *  total by construction. */
    void forwardProfiled();
    void backwardProfiled();

    Arena* arena_ = nullptr;
    VarId root_ = -1;
    std::vector<OpNode> ops_;
    std::vector<char> skipped_;   ///< fused-away nodes, never scheduled
    std::vector<char> needsGrad_; ///< grad buffer exists for this node
    std::vector<Binding> valueBind_;
    std::vector<Binding> gradBind_;
    std::vector<Tensor> owned_;
    std::vector<Tensor> valueSlots_;
    std::vector<Tensor> gradSlots_;
    std::vector<Tensor> saved_;
    std::vector<std::vector<std::uint32_t>> savedIdx_;
    /** Backward kernel scratch, sized at compile (and patch) time. */
    std::vector<std::vector<float>> scratch_;
    std::vector<VarId> forwardSchedule_;
    std::vector<BackStep> backwardSchedule_;
    std::vector<KernelSlot> forwardKernels_;  ///< parallel to schedule
    std::vector<KernelSlot> backwardKernels_; ///< parallel to schedule
    std::uint32_t rootGradSlot_ = 0;
    std::unordered_map<std::string, VarId> inputs_;
    ProgramStats stats_;
};

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_PROGRAM_HPP
