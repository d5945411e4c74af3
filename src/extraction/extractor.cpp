#include "extraction/extractor.hpp"

#include "check/contracts.hpp"
#include "extraction/validate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace smoothe::extract {

ExtractionResult
Extractor::extract(const eg::EGraph& graph, const ExtractOptions& options)
{
    // Uniform observability for every extractor — including ones with
    // no internal spans of their own (ILP presets, random baselines):
    // one span covering the whole run plus a per-extractor run counter.
    const std::string extractorName = name();
    obs::Span span(extractorName, "extraction");
    obs::counter("extraction." + extractorName + ".runs").add(1);
    ExtractionResult result = extractImpl(graph, options);
    SMOOTHE_DCHECK_OK(checkResultInvariants(graph, result));
    return result;
}

ExtractionResult
Extractor::extractIncremental(const eg::EGraph& graph,
                              const eg::GraphDelta& delta,
                              IncrementalState& state,
                              const ExtractOptions& options)
{
    const std::string extractorName = name();
    obs::Span span(extractorName, "extraction");
    obs::counter("extraction." + extractorName + ".incremental_runs")
        .add(1);
    SMOOTHE_DCHECK_OK(delta.checkConsistent(graph));
    if (!state.empty()) {
        // Reusing a state across extractors or e-graph lineages would
        // silently warm-start from unrelated ids; the delta's prev
        // counts must describe exactly the graph this state last saw.
        SMOOTHE_CHECK(state.owner_ == this,
                      "incremental state belongs to extractor \"%s\"",
                      state.owner_ ? state.owner_->name().c_str() : "?");
        SMOOTHE_CHECK(state.graphNodes_ == delta.prevNumNodes &&
                          state.graphClasses_ == delta.prevNumClasses,
                      "stale incremental state: it last saw %zu nodes / "
                      "%zu classes but the delta maps from %zu / %zu — "
                      "reset() the state before switching e-graphs",
                      state.graphNodes_, state.graphClasses_,
                      delta.prevNumNodes, delta.prevNumClasses);
    }
    ExtractionResult result =
        extractIncrementalImpl(graph, delta, state, options);
    state.owner_ = this;
    ++state.epoch_;
    state.graphNodes_ = graph.numNodes();
    state.graphClasses_ = graph.numClasses();
    SMOOTHE_DCHECK_OK(checkResultInvariants(graph, result));
    return result;
}

ExtractionResult
Extractor::extractIncrementalImpl(const eg::EGraph& graph,
                                  const eg::GraphDelta& delta,
                                  IncrementalState& state,
                                  const ExtractOptions& options)
{
    (void)delta;
    (void)state;
    return extractImpl(graph, options);
}

const char*
toString(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Optimal: return "optimal";
      case SolveStatus::Feasible: return "feasible";
      case SolveStatus::Infeasible: return "infeasible";
      case SolveStatus::Failed: return "failed";
    }
    return "?";
}

} // namespace smoothe::extract
