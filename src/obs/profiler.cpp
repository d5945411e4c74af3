#include "obs/profiler.hpp"

#include "util/json.hpp"

namespace smoothe::obs {

namespace detail {
std::atomic<bool> profilerEnabled{false};
} // namespace detail

namespace {

constexpr const char* kPhaseNames[Profiler::kNumPhases] = {"forward",
                                                          "backward"};

} // namespace

// --- Kernel --------------------------------------------------------------

KernelStats
Profiler::Kernel::stats() const
{
    KernelStats out;
    out.name = name_;
    out.calls = calls_.load(std::memory_order_relaxed);
    out.selfSeconds =
        static_cast<double>(selfNanos_.load(std::memory_order_relaxed)) *
        1e-9;
    out.flops = flops_.load(std::memory_order_relaxed);
    out.bytes = bytes_.load(std::memory_order_relaxed);
    return out;
}

void
Profiler::Kernel::reset()
{
    calls_.store(0, std::memory_order_relaxed);
    selfNanos_.store(0, std::memory_order_relaxed);
    flops_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
}

// --- Profiler ------------------------------------------------------------

Profiler&
Profiler::instance()
{
    // Intentionally leaked: the CLI exit hooks serialize the profiler
    // after normal static teardown may have begun.
    static Profiler* singleton = new Profiler;
    return *singleton;
}

void
Profiler::enable(std::size_t stride)
{
    stride_.store(stride == 0 ? 1 : stride, std::memory_order_relaxed);
    detail::profilerEnabled.store(true, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    detail::profilerEnabled.store(false, std::memory_order_relaxed);
}

std::size_t
Profiler::stride() const
{
    return stride_.load(std::memory_order_relaxed);
}

bool
Profiler::sampleReplay(Phase phase)
{
    const auto index = static_cast<std::size_t>(phase);
    const std::uint64_t n =
        replays_[index].fetch_add(1, std::memory_order_relaxed);
    if (n % stride() != 0)
        return false;
    sampled_[index].fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
Profiler::recordPhaseTotal(Phase phase, std::uint64_t nanos)
{
    phaseNanos_[static_cast<std::size_t>(phase)].fetch_add(
        nanos, std::memory_order_relaxed);
}

Profiler::Kernel&
Profiler::kernel(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = kernels_[name];
    if (!slot)
        slot.reset(new Kernel(name));
    return *slot;
}

std::vector<KernelStats>
Profiler::snapshot() const
{
    std::vector<KernelStats> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(kernels_.size());
    for (const auto& [name, kernel] : kernels_) {
        KernelStats stats = kernel->stats();
        if (stats.calls > 0)
            out.push_back(std::move(stats));
    }
    return out;
}

std::uint64_t
Profiler::replays(Phase phase) const
{
    return replays_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
}

std::uint64_t
Profiler::sampledReplays(Phase phase) const
{
    return sampled_[static_cast<std::size_t>(phase)].load(
        std::memory_order_relaxed);
}

double
Profiler::phaseSeconds(Phase phase) const
{
    return static_cast<double>(
               phaseNanos_[static_cast<std::size_t>(phase)].load(
                   std::memory_order_relaxed)) *
           1e-9;
}

bool
Profiler::hasData() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, kernel] : kernels_) {
        (void)name;
        if (kernel->stats().calls > 0)
            return true;
    }
    return false;
}

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, kernel] : kernels_) {
        (void)name;
        kernel->reset();
    }
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        replays_[i].store(0, std::memory_order_relaxed);
        sampled_[i].store(0, std::memory_order_relaxed);
        phaseNanos_[i].store(0, std::memory_order_relaxed);
    }
}

util::Json
Profiler::toJson() const
{
    util::Json profile = util::Json::makeObject();
    profile.set("stride", stride());

    util::Json totals = util::Json::makeObject();
    for (std::size_t i = 0; i < kNumPhases; ++i) {
        const auto phase = static_cast<Phase>(i);
        util::Json entry = util::Json::makeObject();
        entry.set("seconds", phaseSeconds(phase));
        entry.set("replays", static_cast<double>(replays(phase)));
        entry.set("sampled", static_cast<double>(sampledReplays(phase)));
        totals.set(kPhaseNames[i], std::move(entry));
    }
    profile.set("totals", std::move(totals));

    util::Json kernels = util::Json::makeObject();
    for (const KernelStats& stats : snapshot()) {
        util::Json entry = util::Json::makeObject();
        entry.set("calls", static_cast<double>(stats.calls));
        entry.set("selfSeconds", stats.selfSeconds);
        entry.set("flops", static_cast<double>(stats.flops));
        entry.set("bytes", static_cast<double>(stats.bytes));
        entry.set("intensityFlopPerByte", stats.intensity());
        kernels.set(stats.name, std::move(entry));
    }
    profile.set("kernels", std::move(kernels));
    return profile;
}

std::string
Profiler::toFolded() const
{
    std::string out;
    for (const KernelStats& stats : snapshot()) {
        std::string line = "smoothe;";
        for (const char c : stats.name)
            line += c == '.' ? ';' : c;
        line += ' ';
        line += std::to_string(
            static_cast<std::uint64_t>(stats.selfSeconds * 1e6));
        line += '\n';
        out += line;
    }
    return out;
}

} // namespace smoothe::obs
