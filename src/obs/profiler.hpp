/**
 * @file
 * Per-op kernel profiler for the compiled autodiff Program.
 *
 * The compiled replay loop (src/autodiff/program.cpp) resolves one
 * Profiler::Kernel slot per scheduled op at compile time and, on
 * sampled replays, records each op's wall time plus its statically
 * estimated FLOPs and bytes moved — giving per-kernel call counts,
 * self times, and a roofline-style arithmetic-intensity estimate
 * (FLOP/byte).
 *
 * Cost model: disabled (the default), the replay pays one relaxed
 * atomic load and a branch per forward()/backward() call — the
 * disabled-overhead budget is < 1%, gated in CI via
 * bench_micro_kernels' profiler.disabled_overhead_pct measurement.
 * Enabled, every stride-th replay is instrumented with one clock read
 * per op boundary; enabled-mode self times include that read, so
 * kernel self times sum to the recorded phase totals by construction.
 *
 * This is the one per-kernel attribution in the library: kernels do
 * not keep call or byte counters of their own.
 *
 * Exports: a "profile" section in the obs::Report schema (v2+), a
 * collapsed-stack file for flamegraph tooling (--profile-out), and the
 * `smoothe_report profile` top-N kernel table.
 */

#ifndef SMOOTHE_OBS_PROFILER_HPP
#define SMOOTHE_OBS_PROFILER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smoothe::util {
class Json;
} // namespace smoothe::util

namespace smoothe::obs {

namespace detail {
extern std::atomic<bool> profilerEnabled;
} // namespace detail

/** True while per-op profiling is on (one relaxed load). */
inline bool
profilerEnabled()
{
    return detail::profilerEnabled.load(std::memory_order_relaxed);
}

/** Immutable copy of one kernel's accumulated attribution. */
struct KernelStats
{
    std::string name; ///< "<phase>.<kernel>", e.g. "forward.matmul"
    std::uint64_t calls = 0;
    double selfSeconds = 0.0;
    std::uint64_t flops = 0; ///< estimated, from op shapes
    std::uint64_t bytes = 0; ///< estimated bytes moved

    /** Arithmetic intensity in FLOP/byte (0 when no bytes recorded). */
    double
    intensity() const
    {
        return bytes > 0 ? static_cast<double>(flops) /
                               static_cast<double>(bytes)
                         : 0.0;
    }
};

/** The process-wide per-op profiler. */
class Profiler
{
  public:
    /** Which replay loop a sample or total belongs to. */
    enum class Phase : std::uint8_t { Forward = 0, Backward = 1 };
    static constexpr std::size_t kNumPhases = 2;

    /**
     * Per-kernel accumulator. References returned by kernel() stay
     * valid for the process lifetime, so replay loops resolve them
     * once at compile time and update them lock-free.
     */
    class Kernel
    {
      public:
        /** Adds one op execution (self time in nanoseconds). */
        void
        record(std::uint64_t self_nanos, std::uint64_t flop_count,
               std::uint64_t byte_count)
        {
            calls_.fetch_add(1, std::memory_order_relaxed);
            selfNanos_.fetch_add(self_nanos, std::memory_order_relaxed);
            flops_.fetch_add(flop_count, std::memory_order_relaxed);
            bytes_.fetch_add(byte_count, std::memory_order_relaxed);
        }

        const std::string& name() const { return name_; }
        KernelStats stats() const;

      private:
        friend class Profiler;
        explicit Kernel(std::string name) : name_(std::move(name)) {}
        void reset();

        std::string name_;
        std::atomic<std::uint64_t> calls_{0};
        std::atomic<std::uint64_t> selfNanos_{0};
        std::atomic<std::uint64_t> flops_{0};
        std::atomic<std::uint64_t> bytes_{0};
    };

    static Profiler& instance();

    /**
     * Turns profiling on: every stride-th forward()/backward() replay
     * is instrumented (stride 1 = all, clamped to >= 1).
     */
    void enable(std::size_t stride = 1);

    /** Turns profiling off; accumulated data stays readable. */
    void disable();

    bool enabled() const { return profilerEnabled(); }
    std::size_t stride() const;

    /**
     * Called once per replay by the instrumenting loop owner; counts
     * the replay and returns whether this one should be instrumented.
     */
    bool sampleReplay(Phase phase);

    /** Adds one sampled replay's loop wall time to the phase total. */
    void recordPhaseTotal(Phase phase, std::uint64_t nanos);

    /** Returns (creating on first use) the named kernel slot; the
     *  reference stays valid for the process lifetime. */
    Kernel& kernel(const std::string& name);

    /** Snapshot of every kernel with at least one recorded call. */
    std::vector<KernelStats> snapshot() const;

    std::uint64_t replays(Phase phase) const;
    std::uint64_t sampledReplays(Phase phase) const;
    double phaseSeconds(Phase phase) const;

    /** True once any sampled replay recorded kernel data. */
    bool hasData() const;

    /** Clears all accumulated data and replay counters (tests,
     *  multi-section benches); enablement is unchanged. */
    void reset();

    /** The report schema's "profile" section (see DESIGN.md). */
    util::Json toJson() const;

    /**
     * Collapsed-stack ("folded") export for flamegraph tooling: one
     * "smoothe;<phase>;<kernel> <self-microseconds>" line per kernel.
     */
    std::string toFolded() const;

  private:
    Profiler() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Kernel>> kernels_;
    std::atomic<std::size_t> stride_{1};
    std::atomic<std::uint64_t> replays_[kNumPhases] = {};
    std::atomic<std::uint64_t> sampled_[kNumPhases] = {};
    std::atomic<std::uint64_t> phaseNanos_[kNumPhases] = {};
};

} // namespace smoothe::obs

#endif // SMOOTHE_OBS_PROFILER_HPP
