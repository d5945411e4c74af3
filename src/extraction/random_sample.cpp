#include "extraction/random_sample.hpp"

#include "extraction/bottom_up.hpp"
#include "obs/trace.hpp"

namespace smoothe::extract {

using eg::EGraph;

Selection
sampleRandomSelection(const EGraph& graph, util::Rng& rng)
{
    std::vector<double> costs(graph.numNodes());
    for (double& c : costs)
        c = rng.uniform(0.01, 1.0);
    return bottomUpWithCosts(graph, costs);
}

std::vector<Selection>
sampleRandomSelections(const EGraph& graph, std::size_t count, util::Rng& rng)
{
    obs::Span span("random_sample.batch", "extraction");
    std::vector<Selection> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(sampleRandomSelection(graph, rng));
    return out;
}

} // namespace smoothe::extract
