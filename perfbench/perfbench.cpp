/**
 * @file
 * End-to-end SmoothE benchmark: extraction-gym JSON in, a selection
 * certified by extract::validateResult out, one step after the other in
 * a closed loop on a fixed pool of four workers.
 *
 * Workloads (perfbench/README.md says why each was chosen):
 *   oneshot-cyclic     diospyros, flexc, tensat and rover instances
 *   oneshot-acyclic    impress, set and maxsat instances
 *   eqsat-incremental  a live MutEGraph::run loop, re-extracted warm
 *                      after every saturation epoch
 *
 * A step is one graph (fromJson -> SmoothE -> validateResult) or one
 * saturation epoch (run -> exportIncremental -> extractIncremental ->
 * validateResult). A pass runs every step of the workload once; passes
 * repeat until --seconds have elapsed. Heuristic+ reference costs, the
 * delta-replay cross-check and the determinism rerun all run outside the
 * timed spans.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
 * passes with traced ones (benchmark spans kept in memory, obs::Profiler
 * enabled) and prints the per-layer metrics; the spans are written as a
 * Chrome trace into --trace-dir at the end.
 *
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is 1 when any output check failed, 2 on bad arguments.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "datasets/eqsat_grown.hpp"
#include "datasets/generators.hpp"
#include "datasets/nphard.hpp"
#include "egraph/serialize.hpp"
#include "eqsat/mut_egraph.hpp"
#include "eqsat/rules.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "smoothe/smoothe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace smoothe;

namespace {

// --- fixed benchmark settings -------------------------------------------

/** Worker pool size; the only threads the benchmark runs. */
constexpr std::size_t kWorkers = 4;
/** Timed passes to run even when --seconds is already spent. */
constexpr std::size_t kMinPasses = 3;
/** Input hygiene: graphs with fewer classes are degenerate. */
constexpr std::size_t kMinClasses = 16;
/** Draws per input before the benchmark gives up (or settles for the
 *  closest on-target draw). */
constexpr std::size_t kMaxRedraws = 64;
/** On-target draws to choose the closest size from. */
constexpr std::size_t kSizingHits = 4;
/** Fixed SmoothE iteration count of the one-shot workloads. */
constexpr std::size_t kOneShotIterations = 30;
/** Steps rerun on one thread for the determinism check. */
constexpr std::size_t kRerunSteps = 2;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU time of the process (all its threads) in milliseconds. Unlike wall
 * time it leaves out the time other processes or the host hold the CPUs
 * (the kernel accounts steal time apart), so the shared host's load does
 * not show in it; only the host's speed does (referenceMs()).
 */
double
cpuMs()
{
    timespec now{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) * 1e3 +
           static_cast<double>(now.tv_nsec) / 1e6;
}

/** Nominal referenceMs(): about the reference work's CPU time on a
 *  4-vCPU Intel Xeon VM. Time metrics are scaled to this speed. */
constexpr double kNominalReferenceMs = 1.0;

/**
 * Runs a fixed piece of reference work and returns its CPU milliseconds:
 * a clock-speed meter. The host is shared, and its clock can drop by a
 * third for tens of seconds at a time (every step of a run alike), so
 * each pass runs this before every step and the time metrics are scaled
 * to kNominalReferenceMs. The work is one serial chain of integer
 * multiply-xorshift steps: its time is its latency over the clock, and
 * it touches no memory, so neither a neighbour's cache and memory
 * traffic nor any change to the library moves it.
 */
double
referenceMs()
{
    static volatile std::uint64_t state = 0x2545f4914f6cdd1dULL;
    std::uint64_t x = state;
    const double start = cpuMs();
    for (std::size_t i = 0; i < 410000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        x ^= x >> 29;
    }
    const double ms = cpuMs() - start;
    state = x;
    return ms;
}

std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double>& sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    const double rank = std::ceil(pct / 100.0 * sorted.size());
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
    return sorted[index - 1];
}

/** The highest of a fixed ladder of percentiles that still has at least
 *  ten samples beyond it (50 when the sample is smaller than that). */
double
tailPercentile(std::size_t samples)
{
    for (double pct : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0}) {
        if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0)
            return pct;
    }
    return 50.0;
}

// --- benchmark spans ----------------------------------------------------

/** One span recorded by the benchmark around a call into a layer. */
struct SpanRecord
{
    const char* name;
    std::size_t id;
    std::size_t parent; ///< 0 = none
    std::size_t step;   ///< spans of one step share this id
    double startUs;
    double durUs;
};

/** In-memory span log of the traced passes, written out at the end. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Opens a span; returns its id for close(). */
    std::size_t
    open(const char* name, std::size_t parent, std::size_t step)
    {
        spans_.push_back({name, spans_.size() + 1, parent, step,
                          usSinceOrigin(), 0.0});
        return spans_.size();
    }

    void close(std::size_t id)
    {
        SpanRecord& span = spans_[id - 1];
        span.durUs = usSinceOrigin() - span.startUs;
    }

    std::size_t size() const { return spans_.size(); }

    /** Chrome trace-event JSON ("X" events; args carry id, parent and
     *  step). */
    bool
    write(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[";
        char line[256];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            std::snprintf(line, sizeof(line),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                          "{\"id\":%zu,\"parent\":%zu,\"step\":%zu}}",
                          i == 0 ? "" : ",\n", s.name, s.startUs, s.durUs,
                          s.id, s.parent, s.step);
            out << line;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    double usSinceOrigin() const { return secondsSince(origin_) * 1e6; }

    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
};

/**
 * Times one call into a layer: always accumulates its milliseconds into
 * `slot`, and records a span when the pass is traced.
 */
class LayerTimer
{
  public:
    LayerTimer(SpanLog* log, const char* name, std::size_t parent,
               std::size_t step, double& slot)
        : log_(log), slot_(slot), start_(Clock::now())
    {
        if (log_ != nullptr)
            id_ = log_->open(name, parent, step);
    }

    ~LayerTimer()
    {
        slot_ += secondsSince(start_) * 1e3;
        if (log_ != nullptr)
            log_->close(id_);
    }

    LayerTimer(const LayerTimer&) = delete;
    LayerTimer& operator=(const LayerTimer&) = delete;

    std::size_t id() const { return id_; }

  private:
    SpanLog* log_;
    double& slot_;
    Clock::time_point start_;
    std::size_t id_ = 0;
};

/** Accumulates the CPU milliseconds (cpuMs()) of its scope into `slot`. */
class CpuTimer
{
  public:
    explicit CpuTimer(double& slot) : slot_(slot), start_(cpuMs()) {}
    ~CpuTimer() { slot_ += cpuMs() - start_; }

    CpuTimer(const CpuTimer&) = delete;
    CpuTimer& operator=(const CpuTimer&) = delete;

  private:
    double& slot_;
    double start_;
};

// --- per-step and per-pass records --------------------------------------

/** Everything one step measured and checked. */
struct StepRecord
{
    std::string input;       ///< instance or "<term>@<epoch>"
    double ms = 0.0;         ///< the timed step span (wall)
    double cpuMs = 0.0;      ///< CPU time of the step span
    bool identity = false;   ///< identity epoch: left out of step_ms.*
    bool failed = false;
    double cost = 0.0;
    double heuristicCost = 0.0;
    std::size_t iterations = 0;
    std::size_t peakBytes = 0;
    // Layer milliseconds inside the step span.
    double ingestMs = 0.0;
    double runMs = 0.0;
    double exportMs = 0.0;
    double extractMs = 0.0;
    double validateMs = 0.0;
    // Layer facts read from public diagnostics.
    std::size_t matches = 0;
    std::size_t deltaNodes = 0;
    std::size_t largestScc = 0;
    std::size_t propagationIterations = 0;
    std::size_t programBuffers = 0;
    double phaseLoss = 0.0;
    double phaseGradient = 0.0;
    double phaseSampling = 0.0;
    double phaseOther = 0.0;
    bool invalid = false;
};

/** One pass over every step of the workload. */
struct PassRecord
{
    std::vector<StepRecord> steps;
    double seconds = 0.0; ///< sum of the step spans (wall)
    /** Host slowness over the pass: the median referenceMs() before its
     *  steps over kNominalReferenceMs (above 1 = slower than nominal). */
    double slowness = 1.0;
    double inputMb = 0.0; ///< extraction-gym JSON ingested
    // Counter deltas and profiler totals over the pass.
    double samples = 0.0;
    double validSamples = 0.0;
    double patches = 0.0;
    double rerecords = 0.0;
    std::vector<obs::KernelStats> kernels;
    double forwardS = 0.0;
    double backwardS = 0.0;
};

/** Counter values at the start of a pass. */
struct CounterMark
{
    std::uint64_t samples = obs::counter("sampler.samples").get();
    std::uint64_t valid = obs::counter("sampler.valid_samples").get();
    std::uint64_t patches = obs::counter("program.patch").get();
    std::uint64_t rerecords = obs::counter("program.rerecord").get();

    void
    finish(PassRecord& pass) const
    {
        pass.samples = static_cast<double>(
            obs::counter("sampler.samples").get() - samples);
        pass.validSamples = static_cast<double>(
            obs::counter("sampler.valid_samples").get() - valid);
        pass.patches = static_cast<double>(
            obs::counter("program.patch").get() - patches);
        pass.rerecords = static_cast<double>(
            obs::counter("program.rerecord").get() - rerecords);
    }
};

/** Set-up CPU seconds of one repetition, per one-shot input or seed
 *  term. */
struct SetupTiming
{
    std::vector<double> generateS;
    std::vector<double> serializeS;
};

/** Copies SmoothE diagnostics and the certification into the record. */
void
recordExtraction(StepRecord& step, const core::SmoothEExtractor& smoothe,
                 const extract::ExtractionResult& result,
                 const extract::ValidationResult& validation)
{
    const core::SmoothEDiagnostics& diag = smoothe.diagnostics();
    step.cost = result.cost;
    step.iterations = diag.iterations;
    step.peakBytes = diag.peakMemoryBytes;
    step.largestScc = diag.largestScc;
    step.propagationIterations = diag.propagationIterations;
    step.programBuffers = diag.programBuffers;
    step.phaseLoss = diag.profile.lossSeconds;
    step.phaseGradient = diag.profile.gradientSeconds;
    step.phaseSampling = diag.profile.samplingSeconds;
    step.phaseOther = diag.profile.otherSeconds;
    step.invalid = !validation.ok();
    if (!result.ok() || !validation.ok()) {
        step.failed = true;
        std::fprintf(stderr, "perfbench: %s: %s (%s)\n",
                     step.input.c_str(), extract::toString(result.status),
                     validation.message.c_str());
    }
}

bool
degenerate(const eg::EGraph& graph, double heuristic_cost)
{
    return graph.numClasses() < kMinClasses || !(heuristic_cost > 0.0);
}

double
heuristicPlusCost(const eg::EGraph& graph)
{
    extract::FasterBottomUpExtractor heuristic;
    const extract::ExtractionResult result =
        heuristic.extract(graph, extract::ExtractOptions{});
    return result.ok() ? result.cost : 0.0;
}

// --- one-shot workloads -------------------------------------------------

/**
 * One generated instance. Acyclic instances are sized directly; cyclic
 * ones by their SCC sizes (effectiveScc()), since the NOTEARS cost grows
 * with their cubes and the class count alone leaves it to chance. Among
 * on-target draws the one closest to the family's nominal node count
 * wins, which steadies the arena peak.
 */
struct InstanceSpec
{
    const char* family;
    std::size_t size; ///< classes, set-cover elements or MaxSAT vars
    std::size_t scc;  ///< target effectiveScc() in classes (0 = unsized)
};

const std::vector<InstanceSpec>&
cyclicSpecs()
{
    // Near-equal targets, so no few graphs dominate a pass and its time
    // averages over all 24 draws. Classes start at 1.4x the SCC target
    // and are rescaled on every draw that misses it.
    static const std::vector<InstanceSpec> specs = [] {
        std::vector<InstanceSpec> out;
        for (const char* family : {"diospyros", "flexc", "tensat", "rover"}) {
            for (std::size_t scc : {48, 52, 56, 60, 64, 68})
                out.push_back({family, scc * 7 / 5, scc});
        }
        return out;
    }();
    return specs;
}

const std::vector<InstanceSpec>&
acyclicSpecs()
{
    static const std::vector<InstanceSpec> specs = {
        {"impress", 500, 0}, {"impress", 750, 0}, {"impress", 1000, 0},
        {"impress", 1250, 0}, {"set", 200, 0},    {"set", 300, 0},
        {"set", 400, 0},     {"set", 500, 0},     {"set", 600, 0},
        {"set", 700, 0},     {"maxsat", 100, 0},  {"maxsat", 140, 0},
        {"maxsat", 180, 0},  {"maxsat", 220, 0},  {"maxsat", 260, 0},
        {"maxsat", 300, 0}};
    return specs;
}

eg::EGraph
generateInstance(const std::string& family, std::size_t size,
                 std::uint64_t seed)
{
    util::Rng rng(seed);
    if (family == "set") {
        // The set family's element:set ratio (600:90 at scale 1).
        const std::size_t sets = std::max<std::size_t>(6, size * 3 / 20);
        return datasets::setCoverToEGraph(
            datasets::randomSetCover(size, sets, 6.0, rng));
    }
    if (family == "maxsat") {
        // The maxsat family's clause:variable ratio (about 2.6).
        return datasets::maxSatToEGraph(
            datasets::randomMaxSat(size, size * 13 / 5, 3, rng));
    }
    datasets::FamilyParams params = datasets::familyParams(family);
    params.numClasses = size;
    return datasets::generateStructured(params, seed);
}

/**
 * The NOTEARS work of a graph as one SCC size: the cube root of the sum
 * of cubes of its non-trivial SCCs, since each costs O(d^3) per
 * matrix exponential.
 */
std::size_t
effectiveScc(const eg::EGraph& graph)
{
    double cubes = 0.0;
    for (const auto& component : graph.classSccs()) {
        if (component.size() > 1)
            cubes += std::pow(static_cast<double>(component.size()), 3.0);
    }
    return static_cast<std::size_t>(std::lround(std::cbrt(cubes)));
}

/** A one-shot input as the user hands it over: extraction-gym JSON. */
struct OneShotInput
{
    std::string name;
    std::string json;
    double heuristicCost = 0.0;
    // The kept draw, which the timed set-up regenerates.
    const InstanceSpec* spec = nullptr;
    std::size_t size = 0;
    std::uint64_t drawSeed = 0;
};

/** Redraw counts of the input search. */
struct Redraws
{
    std::size_t degenerate = 0; ///< input hygiene: skipped inputs
    std::size_t sizing = 0;     ///< draws off their size target
    std::size_t unsolved = 0;   ///< draws the dry run saw fail
};

/**
 * Chooses the draw of every instance (untimed, once per run). Degenerate
 * draws are skipped; cyclic draws off their SCC target by more than one
 * class are redrawn with rescaled class counts (see InstanceSpec).
 * Heuristic+ runs on the kept draw here. The JSON is left to the set-up.
 */
std::vector<OneShotInput>
chooseOneShot(const std::vector<InstanceSpec>& specs, std::uint64_t seed,
              Redraws& redraws)
{
    std::vector<OneShotInput> inputs;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const InstanceSpec& spec = specs[i];
        std::size_t size = spec.size;
        // Nominal node count: the family's nodes per class at spec.size.
        const std::size_t nominalNodes =
            spec.scc > 0
                ? static_cast<std::size_t>(
                      static_cast<double>(spec.size) *
                      datasets::familyParams(spec.family).nodesPerClass)
                : 0;
        std::optional<OneShotInput> best;
        // (SCC miss, node-count distance); a miss of <= 1 class is a hit.
        std::pair<std::size_t, std::size_t> bestKey{SIZE_MAX, SIZE_MAX};
        std::size_t hits = 0;
        for (std::size_t attempt = 0; attempt < kMaxRedraws; ++attempt) {
            const std::uint64_t drawSeed = mix(seed, i * kMaxRedraws + attempt);
            const eg::EGraph graph =
                generateInstance(spec.family, size, drawSeed);
            const double heuristic = heuristicPlusCost(graph);
            if (degenerate(graph, heuristic)) {
                ++redraws.degenerate;
                continue;
            }
            const std::size_t scc = spec.scc > 0 ? effectiveScc(graph) : 0;
            const std::size_t miss =
                scc > spec.scc ? scc - spec.scc : spec.scc - scc;
            const std::size_t nodes = graph.numNodes();
            const std::pair<std::size_t, std::size_t> key{
                miss <= 1 ? 0 : miss,
                nodes > nominalNodes ? nodes - nominalNodes
                                     : nominalNodes - nodes};
            if (key < bestKey) {
                best = OneShotInput{
                    std::string(spec.family) + "_" +
                        std::to_string(spec.scc > 0 ? spec.scc : spec.size),
                    "", heuristic, &spec, size, drawSeed};
                bestKey = key;
            }
            if (spec.scc == 0 || (miss <= 1 && ++hits == kSizingHits))
                break;
            ++redraws.sizing;
            if (miss > 1) {
                const double factor = std::clamp(
                    static_cast<double>(spec.scc) /
                        static_cast<double>(std::max<std::size_t>(scc, 1)),
                    0.8, 1.25);
                size = static_cast<std::size_t>(size * factor);
            }
        }
        if (!best) {
            std::fprintf(stderr, "perfbench: no non-degenerate draw for "
                                 "%s/%zu\n",
                         spec.family, spec.size);
            std::exit(1);
        }
        inputs.push_back(std::move(*best));
    }
    return inputs;
}

/**
 * The timed set-up: regenerates every kept draw and serializes it. Only
 * kept draws are timed, so setup_s does not depend on how many redraws
 * the search needed.
 */
void
setupOneShot(std::vector<OneShotInput>& inputs, SetupTiming& timing)
{
    for (OneShotInput& input : inputs) {
        double start = cpuMs();
        const eg::EGraph graph =
            generateInstance(input.spec->family, input.size, input.drawSeed);
        timing.generateS.push_back((cpuMs() - start) / 1e3);
        start = cpuMs();
        input.json = eg::toJson(graph);
        timing.serializeS.push_back((cpuMs() - start) / 1e3);
    }
}

core::SmoothEConfig
oneShotConfig()
{
    core::SmoothEConfig config; // 16 seeds, hybrid, batched matexp
    config.maxIterations = kOneShotIterations;
    config.patience = kOneShotIterations; // never exhausted
    return config;
}

/** One one-shot step: JSON in, certified selection out. */
StepRecord
runOneShotStep(const OneShotInput& input, std::uint64_t seed,
               SpanLog* log, std::size_t parent, std::size_t step_id)
{
    StepRecord step;
    step.input = input.name;
    step.heuristicCost = input.heuristicCost;
    {
        const CpuTimer cpu(step.cpuMs);
        LayerTimer stepSpan(log, "step", parent, step_id, step.ms);
        std::optional<eg::EGraph> graph;
        {
            LayerTimer span(log, "egraph.ingest", stepSpan.id(), step_id,
                            step.ingestMs);
            std::string error;
            graph = eg::fromJson(input.json, &error);
            if (!graph) {
                std::fprintf(stderr, "perfbench: %s: bad JSON: %s\n",
                             input.name.c_str(), error.c_str());
                step.failed = true;
                return step;
            }
        }
        core::SmoothEExtractor smoothe(oneShotConfig());
        extract::ExtractOptions options;
        options.seed = seed;
        extract::ExtractionResult result;
        {
            LayerTimer span(log, "smoothe.extract", stepSpan.id(), step_id,
                            step.extractMs);
            result = smoothe.extract(*graph, options);
        }
        extract::ValidationResult validation;
        {
            LayerTimer span(log, "extraction.validate", stepSpan.id(),
                            step_id, step.validateMs);
            validation = extract::validateResult(*graph, result);
        }
        recordExtraction(step, smoothe, result, validation);
    }
    return step;
}

// --- eqsat-incremental workload -----------------------------------------

/** Per-op cost of the eqsat term languages: leaves free, shifts and
 *  min/max cheap, multiplies dear. */
double
opCost(const std::string& op, std::size_t)
{
    if (op == "zero" || op == "one" || op == "two" || op == "three" ||
        op == "five" || op.rfind("v", 0) == 0)
        return 0.0;
    if (op == "+" || op == "-")
        return 4.0;
    if (op == "<<" || op == "neg")
        return 1.0;
    if (op == "min" || op == "max")
        return 2.0;
    if (op == "*" || op == "square")
        return 16.0;
    if (op == "mac")
        return 17.0;
    return 8.0;
}

/** Saturation epochs per seed term. */
constexpr std::size_t kEpochs = 4;
/**
 * Largest effectiveScc() a seed term's graphs may reach. The NOTEARS
 * term is oneshot-cyclic's subject; here one runaway SCC would swamp
 * the eqsat and warm-start costs this workload exists to measure.
 */
constexpr std::size_t kIncrementalSccCap = 24;

/** Node budget of epoch `e`: ramps every epoch so each one grows. */
std::size_t
epochBudget(std::size_t epoch)
{
    return 160 + 120 * epoch;
}

eqsat::RunLimits
epochLimits(std::size_t epoch)
{
    eqsat::RunLimits limits;
    limits.maxIterations = 4;
    limits.maxNodes = epochBudget(epoch);
    limits.maxMatchesPerRule = 1000;
    return limits;
}

enum class RuleSet { CaviarPhases, Arithmetic, Datapath };

const std::vector<eqsat::Rewrite>&
rulesFor(RuleSet rules, std::size_t epoch)
{
    switch (rules) {
      case RuleSet::CaviarPhases: {
        const auto& phases = eqsat::caviarRulePhases();
        return phases[epoch % phases.size()];
      }
      case RuleSet::Arithmetic:
        return eqsat::arithmeticRules();
      case RuleSet::Datapath:
        break;
    }
    return eqsat::datapathRules();
}

struct TermSpec
{
    const char* name;
    datasets::TermFlavor flavor;
    RuleSet rules;
    std::size_t depth;
};

const std::vector<TermSpec>&
termSpecs()
{
    using datasets::TermFlavor;
    static const std::vector<TermSpec> specs = {
        {"caviar_a", TermFlavor::Caviar, RuleSet::CaviarPhases, 4},
        {"caviar_b", TermFlavor::Caviar, RuleSet::CaviarPhases, 5},
        {"caviar_c", TermFlavor::Caviar, RuleSet::CaviarPhases, 5},
        {"arith_a", TermFlavor::Arithmetic, RuleSet::Arithmetic, 4},
        {"arith_b", TermFlavor::Arithmetic, RuleSet::Arithmetic, 5},
        {"arith_c", TermFlavor::Arithmetic, RuleSet::Arithmetic, 5},
        {"datapath_a", TermFlavor::Datapath, RuleSet::Datapath, 4},
        {"datapath_b", TermFlavor::Datapath, RuleSet::Datapath, 5},
        {"datapath_c", TermFlavor::Datapath, RuleSet::Datapath, 5}};
    return specs;
}

/** Sum of random subtrees, so one collapsing rewrite (x - x -> 0)
 *  cannot reduce a seed term to a leaf. */
eqsat::TermPtr
drawTerm(const TermSpec& spec, util::Rng& rng)
{
    const char* join =
        spec.flavor == datasets::TermFlavor::Caviar ? "max" : "+";
    return eqsat::app(
        join, {eqsat::app("+", {datasets::randomTerm(spec.flavor,
                                                     spec.depth, 4, rng),
                                datasets::randomTerm(spec.flavor,
                                                     spec.depth, 4, rng)}),
               datasets::randomTerm(spec.flavor, spec.depth, 4, rng)});
}

/** A seed term with its rules and the reference epoch graphs. */
struct SeedTerm
{
    std::string name;
    eqsat::TermPtr term;
    RuleSet rules;
    std::vector<std::size_t> refNodes; ///< per epoch
    std::vector<double> heuristicCost; ///< per epoch
    // The kept draw, which the timed set-up regenerates.
    const TermSpec* spec = nullptr;
    std::uint64_t drawSeed = 0;
};

/** Draws `term.term` from its kept draw and grows it through every
 *  epoch; returns the epoch graphs. */
std::vector<eg::EGraph>
growSeedTerm(SeedTerm& term)
{
    util::Rng rng(term.drawSeed);
    term.term = drawTerm(*term.spec, rng);
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*term.term);
    eqsat::ExportState exportState;
    std::vector<eg::EGraph> graphs;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        mut.run(rulesFor(term.rules, epoch), epochLimits(epoch));
        graphs.push_back(
            mut.exportIncremental(mut.find(root), opCost, exportState).graph);
    }
    return graphs;
}

/**
 * The timed set-up: redraws every kept seed term and grows it through
 * every epoch (generation + saturation), then serializes each epoch
 * graph. Only kept draws are timed, as in setupOneShot().
 */
void
setupIncremental(std::vector<SeedTerm>& terms, SetupTiming& timing)
{
    for (SeedTerm& term : terms) {
        double start = cpuMs();
        const std::vector<eg::EGraph> graphs = growSeedTerm(term);
        timing.generateS.push_back((cpuMs() - start) / 1e3);
        start = cpuMs();
        for (const eg::EGraph& graph : graphs)
            eg::toJson(graph);
        timing.serializeS.push_back((cpuMs() - start) / 1e3);
    }
}

/**
 * Runs every epoch of one seed term: the live saturation loop with a
 * warm incremental SmoothE re-extraction per epoch. The delta-replay
 * cross-check runs between the timed step spans.
 */
void
runIncrementalTerm(const SeedTerm& term, std::uint64_t seed, SpanLog* log,
                   std::size_t parent, std::size_t& step_id,
                   std::vector<StepRecord>& out)
{
    eqsat::MutEGraph mut;
    const eqsat::Id root = mut.addTerm(*term.term);
    mut.enableDeltaLog(true);
    eqsat::ExportState exportState;
    extract::IncrementalState state;
    core::SmoothEExtractor smoothe; // default config: patience on
    extract::ExtractOptions options;
    options.seed = seed;

    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
        eqsat::MutEGraph snapshot = mut; // untimed, for the replay check
        StepRecord step;
        step.input = term.name + "@" + std::to_string(epoch);
        step.heuristicCost = term.heuristicCost[epoch];
        ++step_id;
        bool identity = false;
        std::size_t nodes = 0;
        {
            const CpuTimer cpu(step.cpuMs);
            LayerTimer stepSpan(log, "step", parent, step_id, step.ms);
            eqsat::RunStats stats;
            {
                LayerTimer span(log, "eqsat.run", stepSpan.id(), step_id,
                                step.runMs);
                stats = mut.run(rulesFor(term.rules, epoch),
                                epochLimits(epoch));
            }
            step.matches = stats.totalMatches;
            std::optional<eqsat::ExportResult> exported;
            {
                LayerTimer span(log, "eqsat.export", stepSpan.id(),
                                step_id, step.exportMs);
                exported = mut.exportIncremental(mut.find(root), opCost,
                                                 exportState);
            }
            identity = epoch > 0 && exported->delta.isIdentity();
            nodes = exported->graph.numNodes();
            step.deltaNodes =
                nodes - std::min(nodes, exported->delta.prevNumNodes);
            extract::ExtractionResult result;
            {
                LayerTimer span(log, "smoothe.extract", stepSpan.id(),
                                step_id, step.extractMs);
                result = smoothe.extractIncremental(
                    exported->graph, exported->delta, state, options);
            }
            extract::ValidationResult validation;
            {
                LayerTimer span(log, "extraction.validate", stepSpan.id(),
                                step_id, step.validateMs);
                validation =
                    extract::validateResult(exported->graph, result);
            }
            recordExtraction(step, smoothe, result, validation);
        }
        step.identity = identity;
        // The live loop must regrow the reference graph exactly.
        if (nodes != term.refNodes[epoch]) {
            step.failed = true;
            std::fprintf(stderr,
                         "perfbench: %s: %zu nodes, reference %zu\n",
                         step.input.c_str(), nodes, term.refNodes[epoch]);
        }
        const eqsat::Delta delta = mut.drainDelta();
        snapshot.applyDelta(delta);
        if (const auto diff = snapshot.structurallyEquals(mut)) {
            step.failed = true;
            std::fprintf(stderr, "perfbench: %s: delta replay diverged: %s\n",
                         step.input.c_str(), diff->c_str());
        }
        out.push_back(std::move(step));
    }
}

/**
 * Chooses the draw of every seed term (untimed, once per run). Draws
 * whose graphs are degenerate, exceed the SCC cap, or do not grow in
 * every epoch (a saturated or shrinking term would time identity or
 * near-identity epochs) are redrawn. Among kSizingHits on-target draws
 * the one whose last graph is closest to the last node budget is tried
 * first, so the terms of one seed are sized like those of another.
 * Heuristic+ runs on the reference epoch graphs here.
 *
 * The chosen draw is dry-run through every epoch: on a cyclic graph
 * SmoothE's sampler can find no valid selection, and no timed step may
 * fail. Such draws are counted and the next one is tried.
 */
std::vector<SeedTerm>
chooseIncremental(std::uint64_t seed, Redraws& redraws)
{
    std::vector<SeedTerm> terms;
    const auto& specs = termSpecs();
    const std::size_t lastBudget = epochBudget(kEpochs - 1);
    const auto offBudget = [&](const SeedTerm& t) {
        const std::size_t nodes = t.refNodes.back();
        return nodes > lastBudget ? nodes - lastBudget : lastBudget - nodes;
    };
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::optional<SeedTerm> chosen;
        std::size_t attempt = 0;
        while (!chosen && attempt < kMaxRedraws) {
            std::vector<SeedTerm> hits;
            while (attempt < kMaxRedraws && hits.size() < kSizingHits) {
                SeedTerm term;
                term.name = specs[i].name;
                term.rules = specs[i].rules;
                term.spec = &specs[i];
                term.drawSeed = mix(seed, i * kMaxRedraws + attempt++);
                bool bad = false;
                bool grows = true;
                std::size_t scc = 0;
                for (const eg::EGraph& graph : growSeedTerm(term)) {
                    const double heuristic = heuristicPlusCost(graph);
                    bad = bad || degenerate(graph, heuristic);
                    scc = std::max(scc, effectiveScc(graph));
                    grows = grows && (term.refNodes.empty() ||
                                      graph.numNodes() > term.refNodes.back());
                    term.heuristicCost.push_back(heuristic);
                    term.refNodes.push_back(graph.numNodes());
                }
                if (bad) {
                    ++redraws.degenerate;
                    continue;
                }
                if (scc > kIncrementalSccCap || !grows) {
                    ++redraws.sizing;
                    continue;
                }
                const bool close = offBudget(term) <= lastBudget / 20;
                hits.push_back(std::move(term));
                if (close)
                    break;
            }
            std::stable_sort(hits.begin(), hits.end(),
                             [&](const SeedTerm& a, const SeedTerm& b) {
                                 return offBudget(a) < offBudget(b);
                             });
            for (SeedTerm& term : hits) {
                std::vector<StepRecord> steps;
                std::size_t stepId = 0;
                runIncrementalTerm(term, seed, nullptr, 0, stepId, steps);
                if (std::none_of(steps.begin(), steps.end(),
                                 [](const StepRecord& step) {
                                     return step.failed;
                                 })) {
                    chosen = std::move(term);
                    break;
                }
                ++redraws.unsolved;
                std::fprintf(stderr, "perfbench: %s: draw rejected by the "
                                     "dry run, redrawing\n",
                             term.name.c_str());
            }
        }
        if (!chosen) {
            std::fprintf(stderr, "perfbench: no usable draw for %s\n",
                         specs[i].name);
            std::exit(1);
        }
        terms.push_back(std::move(*chosen));
    }
    return terms;
}

// --- the workload loop --------------------------------------------------

enum class Kind { OneShotCyclic, OneShotAcyclic, Incremental };

/** Set-up output shared by the pass loop. */
struct Workload
{
    Kind kind = Kind::OneShotCyclic;
    std::uint64_t seed = 1;
    std::vector<OneShotInput> oneShot;
    std::vector<SeedTerm> terms;
    double inputMb = 0.0;
    Redraws redraws;
};

/** Runs one pass; `log` is non-null on traced passes. */
PassRecord
runPass(const Workload& workload, SpanLog* log)
{
    PassRecord pass;
    pass.inputMb = workload.inputMb;
    const bool traced = log != nullptr;
    obs::Profiler& profiler = obs::Profiler::instance();
    if (traced) {
        profiler.reset();
        profiler.enable(1);
    }
    const CounterMark mark;
    // One reference sample per step, taken between the step spans.
    std::vector<double> reference;
    double passMs = 0.0;
    {
        LayerTimer passSpan(log, "pass", 0, 0, passMs);
        std::size_t stepId = log != nullptr ? log->size() : 0;
        if (workload.kind == Kind::Incremental) {
            for (const SeedTerm& term : workload.terms) {
                for (std::size_t e = 0; e < kEpochs; ++e)
                    reference.push_back(referenceMs());
                runIncrementalTerm(term, workload.seed, log, passSpan.id(),
                                   stepId, pass.steps);
            }
        } else {
            for (const OneShotInput& input : workload.oneShot) {
                ++stepId;
                reference.push_back(referenceMs());
                pass.steps.push_back(runOneShotStep(
                    input, workload.seed, log, passSpan.id(), stepId));
            }
        }
    }
    mark.finish(pass);
    pass.slowness = median(reference) / kNominalReferenceMs;
    if (traced) {
        profiler.disable();
        pass.kernels = profiler.snapshot();
        pass.forwardS = profiler.phaseSeconds(obs::Profiler::Phase::Forward);
        pass.backwardS =
            profiler.phaseSeconds(obs::Profiler::Phase::Backward);
    }
    for (const StepRecord& step : pass.steps)
        pass.seconds += step.ms / 1e3;
    return pass;
}

/** The `count` fastest of a run's passes, fastest first. */
std::vector<const PassRecord*>
fastest(const std::vector<PassRecord>& passes, std::size_t count)
{
    std::vector<const PassRecord*> out;
    for (const PassRecord& pass : passes)
        out.push_back(&pass);
    std::sort(out.begin(), out.end(),
              [](const PassRecord* a, const PassRecord* b) {
                  return a->seconds < b->seconds;
              });
    out.resize(std::min(count, out.size()));
    return out;
}

/** The faster half of a run's passes (the traced per-layer values). */
std::vector<const PassRecord*>
fasterHalf(const std::vector<PassRecord>& passes)
{
    return fastest(passes, (passes.size() + 1) / 2);
}

/**
 * Every step's CPU milliseconds over a run's passes at nominal host
 * speed (each pass's cpuMs over its slowness), fastest first. What the
 * scaling leaves of the host's interference only adds time and comes
 * and goes within a run, so a step's fastest spans are its time on a
 * quiet host. Taking them step by step needs a quiet moment per step,
 * not a quiet pass.
 */
std::vector<std::vector<double>>
stepSpans(const std::vector<PassRecord>& passes)
{
    std::vector<std::vector<double>> spans(passes.front().steps.size());
    for (const PassRecord& pass : passes) {
        for (std::size_t i = 0; i < spans.size(); ++i)
            spans[i].push_back(pass.steps[i].cpuMs / pass.slowness);
    }
    for (std::vector<double>& step : spans)
        std::sort(step.begin(), step.end());
    return spans;
}

/** A pass at every step's fastest span, in seconds. */
double
quietPassSeconds(const std::vector<PassRecord>& passes)
{
    double ms = 0.0;
    for (const std::vector<double>& step : stepSpans(passes))
        ms += step.front();
    return ms / 1e3;
}

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Seconds of every profiler kernel whose op name starts with `op`. */
double
kernelSeconds(const PassRecord& pass, const std::string& op,
              double* gflop = nullptr)
{
    double seconds = 0.0;
    double flops = 0.0;
    for (const obs::KernelStats& kernel : pass.kernels) {
        const std::size_t dot = kernel.name.find('.');
        if (dot == std::string::npos ||
            kernel.name.compare(dot + 1, op.size(), op) != 0)
            continue;
        seconds += kernel.selfSeconds;
        flops += static_cast<double>(kernel.flops);
    }
    if (gflop != nullptr)
        *gflop = flops / 1e9;
    return seconds;
}

/** The per-layer values of one traced pass, in a fixed order. */
std::vector<Metric>
layerValues(const PassRecord& pass)
{
    double ingest = 0.0, run = 0.0, exportMs = 0.0, extract = 0.0,
           validate = 0.0;
    double loss = 0.0, gradient = 0.0, sampling = 0.0, other = 0.0;
    double iterations = 0.0, matches = 0.0, deltaNodes = 0.0,
           identity = 0.0, invalid = 0.0;
    double largestScc = 0.0, propagation = 0.0, buffers = 0.0;
    for (const StepRecord& s : pass.steps) {
        ingest += s.ingestMs;
        run += s.runMs;
        exportMs += s.exportMs;
        extract += s.extractMs;
        validate += s.validateMs;
        loss += s.phaseLoss;
        gradient += s.phaseGradient;
        sampling += s.phaseSampling;
        other += s.phaseOther;
        iterations += static_cast<double>(s.iterations);
        matches += static_cast<double>(s.matches);
        deltaNodes += static_cast<double>(s.deltaNodes);
        identity += s.identity ? 1.0 : 0.0;
        invalid += s.invalid ? 1.0 : 0.0;
        largestScc = std::max(largestScc, static_cast<double>(s.largestScc));
        propagation = std::max(
            propagation, static_cast<double>(s.propagationIterations));
        buffers = std::max(buffers, static_cast<double>(s.programBuffers));
    }
    const double steps = static_cast<double>(pass.steps.size());
    double gflop = 0.0;
    const double trExpm = kernelSeconds(pass, "tr_expm", &gflop);
    return {
        {"egraph.ingest_ms", ingest / steps, "ms"},
        {"egraph.input_mb", pass.inputMb, "MB"},
        {"eqsat.run_ms", run / steps, "ms"},
        {"eqsat.matches", matches, "count"},
        {"eqsat.export_ms", exportMs / steps, "ms"},
        {"eqsat.delta_nodes", deltaNodes, "count"},
        {"eqsat.identity_epochs", identity, "count"},
        {"smoothe.extract_ms", extract / steps, "ms"},
        {"smoothe.iterations", iterations, "count"},
        {"smoothe.iter_ms", iterations > 0.0 ? extract / iterations : 0.0,
         "ms"},
        {"smoothe.phase.loss_s", loss, "s"},
        {"smoothe.phase.gradient_s", gradient, "s"},
        {"smoothe.phase.sampling_s", sampling, "s"},
        {"smoothe.phase.other_s", other, "s"},
        {"smoothe.unaccounted_s",
         extract / 1e3 - (loss + gradient + sampling + other), "s"},
        {"smoothe.sampler_valid_rate",
         pass.samples > 0.0 ? pass.validSamples / pass.samples : 0.0,
         "ratio"},
        {"smoothe.sampler_samples", pass.samples, "count"},
        {"smoothe.largest_scc", largestScc, "classes"},
        {"smoothe.propagation_iterations", propagation, "count"},
        {"autodiff.tr_expm_s", trExpm, "s"},
        {"autodiff.tr_expm_share",
         extract > 0.0 ? trExpm / (extract / 1e3) : 0.0, "ratio"},
        {"autodiff.tr_expm_gflop", gflop, "GFLOP"},
        {"autodiff.forward_s", pass.forwardS, "s"},
        {"autodiff.backward_s", pass.backwardS, "s"},
        {"autodiff.program_buffers", buffers, "count"},
        {"autodiff.program_patch", pass.patches, "count"},
        {"autodiff.program_rerecord", pass.rerecords, "count"},
        {"tensor.segment_product_complement_s",
         kernelSeconds(pass, "segment_product_complement"), "s"},
        {"tensor.segment_max_gather_s",
         kernelSeconds(pass, "segment_max_gather"), "s"},
        {"tensor.fused_elem_chain_s", kernelSeconds(pass, "fused_elem_chain"),
         "s"},
        {"extraction.validate_ms", validate / steps, "ms"},
        {"extraction.invalid", invalid, "count"},
    };
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
};

bool
parseOptions(int argc, char** argv, Options& options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n",
                         flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = value == "1";
            else if (flag == "--trace-dir")
                options.traceDir = value;
            else {
                std::fprintf(stderr, "perfbench: unrecognized flag %s\n",
                             flag.c_str());
                return false;
            }
        } catch (const std::exception&) {
            std::fprintf(stderr, "perfbench: bad value for %s: %s\n",
                         flag.c_str(), value.c_str());
            return false;
        }
    }
    return options.seconds > 0.0;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseOptions(argc, argv, options))
        return 2;
    Workload workload;
    workload.seed = options.seed;
    if (options.workload == "oneshot-cyclic")
        workload.kind = Kind::OneShotCyclic;
    else if (options.workload == "oneshot-acyclic")
        workload.kind = Kind::OneShotAcyclic;
    else if (options.workload == "eqsat-incremental")
        workload.kind = Kind::Incremental;
    else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    const std::size_t workers = util::ThreadPool::setGlobalThreads(kWorkers);

    // --- input search (untimed), then the set-up: generate + serialize
    // the kept draws. The set-up runs before the warm-up and again before
    // every timed pass, so its samples span the run as the passes do; each
    // is scaled to nominal host speed by the slowness of the pass after
    // it. ----
    if (workload.kind == Kind::Incremental) {
        workload.terms = chooseIncremental(options.seed, workload.redraws);
    } else {
        workload.oneShot = chooseOneShot(workload.kind == Kind::OneShotCyclic
                                             ? cyclicSpecs()
                                             : acyclicSpecs(),
                                         options.seed, workload.redraws);
    }
    std::vector<SetupTiming> setups;
    const auto setUp = [&] {
        SetupTiming timing;
        if (workload.kind == Kind::Incremental)
            setupIncremental(workload.terms, timing);
        else
            setupOneShot(workload.oneShot, timing);
        return timing;
    };
    const auto keepSetUp = [&](SetupTiming timing, const PassRecord& next) {
        for (double& s : timing.generateS)
            s /= next.slowness;
        for (double& s : timing.serializeS)
            s /= next.slowness;
        setups.push_back(std::move(timing));
    };
    const SetupTiming firstSetUp = setUp();
    for (const OneShotInput& input : workload.oneShot)
        workload.inputMb += static_cast<double>(input.json.size()) / 1e6;

    std::size_t attempted = 0;
    std::size_t failed = 0;
    auto account = [&](const PassRecord& pass) {
        for (const StepRecord& step : pass.steps) {
            ++attempted;
            failed += step.failed ? 1 : 0;
        }
    };

    // --- warm-up pass (checked, not timed), then the timed passes ------
    const PassRecord warmup = runPass(workload, nullptr);
    account(warmup);
    keepSetUp(firstSetUp, warmup);
    const std::size_t stepsPerPass = warmup.steps.size();

    SpanLog spans(Clock::now());
    std::vector<PassRecord> plain, traced;
    const Clock::time_point measureStart = Clock::now();
    while (secondsSince(measureStart) < options.seconds ||
           plain.size() < kMinPasses ||
           (options.trace && traced.size() < kMinPasses)) {
        const SetupTiming timing = setUp();
        plain.push_back(runPass(workload, nullptr));
        keepSetUp(timing, plain.back());
        account(plain.back());
        if (options.trace) {
            traced.push_back(runPass(workload, &spans));
            account(traced.back());
        }
    }

    // Every pass must reproduce the warm-up's costs exactly.
    for (const auto* passes : {&plain, &traced}) {
        for (const PassRecord& pass : *passes) {
            for (std::size_t i = 0; i < stepsPerPass; ++i) {
                if (pass.steps[i].cost == warmup.steps[i].cost)
                    continue;
                ++failed;
                std::fprintf(stderr,
                             "perfbench: %s: cost %.17g differs from the "
                             "warm-up's %.17g\n",
                             pass.steps[i].input.c_str(),
                             pass.steps[i].cost, warmup.steps[i].cost);
            }
        }
    }

    // --- determinism contract: a 1-thread rerun reproduces costs -------
    util::ThreadPool::setGlobalThreads(1);
    std::size_t rerunSteps = 0;
    if (workload.kind == Kind::Incremental) {
        // The smallest seed term, every epoch.
        std::size_t smallest = 0;
        for (std::size_t t = 1; t < workload.terms.size(); ++t) {
            if (workload.terms[t].refNodes.back() <
                workload.terms[smallest].refNodes.back())
                smallest = t;
        }
        std::vector<StepRecord> rerun;
        std::size_t stepId = 0;
        runIncrementalTerm(workload.terms[smallest], workload.seed, nullptr,
                           0, stepId, rerun);
        for (std::size_t e = 0; e < rerun.size(); ++e) {
            const StepRecord& reference =
                warmup.steps[smallest * kEpochs + e];
            ++attempted;
            ++rerunSteps;
            if (rerun[e].failed || rerun[e].cost != reference.cost) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: 1-thread rerun of %s: cost %.17g, "
                             "%zu threads gave %.17g\n",
                             rerun[e].input.c_str(), rerun[e].cost, workers,
                             reference.cost);
            }
        }
    } else {
        // The smallest inputs.
        std::vector<std::size_t> order(workload.oneShot.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return workload.oneShot[a].json.size() <
                             workload.oneShot[b].json.size();
                  });
        for (std::size_t k = 0; k < std::min(kRerunSteps, order.size());
             ++k) {
            const std::size_t i = order[k];
            const StepRecord rerun = runOneShotStep(
                workload.oneShot[i], workload.seed, nullptr, 0, 0);
            ++attempted;
            ++rerunSteps;
            if (rerun.failed || rerun.cost != warmup.steps[i].cost) {
                ++failed;
                std::fprintf(stderr,
                             "perfbench: 1-thread rerun of %s: cost %.17g, "
                             "%zu threads gave %.17g\n",
                             rerun.input.c_str(), rerun.cost, workers,
                             warmup.steps[i].cost);
            }
        }
    }
    const bool correct = failed == 0;

    // --- end-to-end metrics (untraced passes, CPU time at nominal host
    // speed) --------------------------------------------------------------
    // The set-up as the steps (stepSpans()): every input at its fastest
    // repetition.
    double setupS = 0.0, generateS = 0.0, serializeS = 0.0;
    for (std::size_t i = 0; i < setups.front().generateS.size(); ++i) {
        double both = INFINITY, generate = INFINITY, serialize = INFINITY;
        for (const SetupTiming& timing : setups) {
            both = std::min(both,
                            timing.generateS[i] + timing.serializeS[i]);
            generate = std::min(generate, timing.generateS[i]);
            serialize = std::min(serialize, timing.serializeS[i]);
        }
        setupS += both;
        generateS += generate;
        serializeS += serialize;
    }
    // The time metrics come from every step's fastest spans (stepSpans()):
    // e2e_s and step_ms.p50 from each step's fastest, step_ms.tail from
    // each step's kMinPasses fastest, so the tail's sample set and
    // percentile are fixed per workload however many passes fit in
    // --seconds.
    const std::vector<std::vector<double>> spansByStep = stepSpans(plain);
    const double e2eS = quietPassSeconds(plain);
    double passIterations = 0.0;
    std::vector<double> stepMs, tailMs;
    for (std::size_t i = 0; i < stepsPerPass; ++i) {
        passIterations += static_cast<double>(warmup.steps[i].iterations);
        if (warmup.steps[i].identity)
            continue;
        stepMs.push_back(spansByStep[i].front());
        for (std::size_t k = 0; k < kMinPasses; ++k)
            tailMs.push_back(spansByStep[i][k]);
    }
    std::sort(tailMs.begin(), tailMs.end());
    const double tailPct = tailPercentile(stepsPerPass * kMinPasses);
    // Deterministic per input, so the warm-up pass speaks for all.
    double peakSum = 0.0;
    double logRatio = 0.0;
    std::size_t ratioSteps = 0;
    std::size_t identityEpochs = 0;
    for (const StepRecord& step : warmup.steps) {
        peakSum += static_cast<double>(step.peakBytes);
        identityEpochs += step.identity ? 1 : 0;
        if (step.identity || step.failed)
            continue;
        logRatio += std::log(step.cost / step.heuristicCost);
        ++ratioSteps;
    }
    const double meanPeakMb =
        peakSum / static_cast<double>(warmup.steps.size()) / 1e6;
    std::sort(stepMs.begin(), stepMs.end());
    const double costRatio =
        ratioSteps > 0 ? std::exp(logRatio / static_cast<double>(ratioSteps))
                       : 0.0;
    const double failedFrac =
        static_cast<double>(failed) / static_cast<double>(attempted);

    std::printf("perfbench %s  seed %llu  workers %zu  closed loop, one "
                "client\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                workers);
    std::printf("  steps/pass %zu  timed passes %zu%s  inputs skipped as "
                "degenerate %zu  off-target redraws %zu  dry-run rejects "
                "%zu  identity epochs %zu\n",
                stepsPerPass, plain.size(),
                options.trace ? " (+ traced)" : "",
                workload.redraws.degenerate, workload.redraws.sizing,
                workload.redraws.unsolved, identityEpochs);
    std::printf("    %-16s %9s %9s  (CPU ms at nominal host speed)\n", "step",
                "fastest", "median");
    for (std::size_t i = 0; i < stepsPerPass; ++i) {
        const StepRecord& step = warmup.steps[i];
        std::printf("    %-16s %9.2f %9.2f ms  %4zu iters  scc %4zu  arena "
                    "%6.3f MB  cost %-10.6g heuristic+ %.6g%s\n",
                    step.input.c_str(), spansByStep[i].front(),
                    median(spansByStep[i]), step.iterations, step.largestScc,
                    static_cast<double>(step.peakBytes) / 1e6, step.cost,
                    step.heuristicCost, step.identity ? "  (identity)" : "");
    }
    std::printf("  step samples %zu  tail = p%g of each step's %zu fastest "
                "(%zu samples, %zu beyond)  failed_frac %.4f (%zu/%zu, "
                "1-thread rerun %zu steps)\n",
                stepMs.size(), tailPct, kMinPasses, tailMs.size(),
                static_cast<std::size_t>(static_cast<double>(tailMs.size()) *
                                         (1.0 - tailPct / 100.0)),
                failedFrac, failed, attempted, rerunSteps);

    std::printf("  pass wall s / CPU s / host slowness:");
    for (const PassRecord& pass : plain) {
        double cpu = 0.0;
        for (const StepRecord& step : pass.steps)
            cpu += step.cpuMs / 1e3;
        std::printf("  %.3f/%.3f/%.3f", pass.seconds, cpu, pass.slowness);
    }
    std::printf("\n  every step at its fastest, CPU s at nominal speed: "
                "%.4f\n", e2eS);

    std::vector<Metric> metrics;
    if (!options.trace) {
        metrics = {
            {"setup_s", setupS, "s"},
            {"e2e_s", e2eS, "s"},
            {"iters_per_s", passIterations / e2eS, "1/s"},
            {"step_ms.p50", percentile(stepMs, 50.0), "ms"},
            {"step_ms.tail", percentile(tailMs, tailPct), "ms"},
            {"cost_ratio", costRatio, "ratio"},
            {"arena_peak_mb", meanPeakMb, "MB"},
        };
        for (const Metric& m : metrics)
            std::printf("  %-16s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("  %-16s %14.6f %s\n", "failed_frac", failedFrac,
                    "ratio");
    } else {
        // Median of each layer value over the faster half of the traced
        // passes (layerValues() keeps one order for every pass).
        const std::vector<const PassRecord*> tracedQuiet = fasterHalf(traced);
        std::vector<std::vector<Metric>> perPass;
        for (const PassRecord* pass : tracedQuiet)
            perPass.push_back(layerValues(*pass));
        // Overhead compares like with like: both sides every step at its
        // fastest.
        const double tracedE2e = quietPassSeconds(traced);
        metrics.push_back({"datasets.generate_s", generateS, "s"});
        metrics.push_back({"egraph.serialize_s", serializeS, "s"});
        for (std::size_t m = 0; m < perPass.front().size(); ++m) {
            std::vector<double> values;
            for (const std::vector<Metric>& pass : perPass)
                values.push_back(pass[m].value);
            metrics.push_back({perPass.front()[m].name, median(values),
                               perPass.front()[m].unit});
        }
        metrics.push_back(
            {"trace_overhead_pct",
             (tracedE2e - e2eS) / e2eS * 100.0, "%"});
        std::printf("  traced e2e_s %.4f vs untraced %.4f\n", tracedE2e,
                    e2eS);
        for (const Metric& m : metrics)
            std::printf("  %-38s %14.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::string path = options.traceDir + "/perfbench-" +
                           options.workload + "-seed" +
                           std::to_string(options.seed) + ".trace.json";
        if (spans.write(path))
            std::printf("  spans: %zu written to %s\n", spans.size(),
                        path.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
