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
