/**
 * @file
 * The discrete sampling stage of SmoothE (Section 3.5): converts one
 * seed's conditional probabilities cp into a valid extraction by walking
 * top-down from the root and picking the arg-max-cp e-node per needed
 * e-class.
 *
 * With repair enabled, members whose selection would close a cycle are
 * skipped in decreasing cp order, making the sampler total on cyclic
 * e-graphs; with repair disabled the caller relies on the NOTEARS
 * penalty, exactly as the paper does, and invalid samples are simply
 * discarded by validation.
 *
 * Every needed class takes its arg-max member, found in one scan; ties
 * between members of equal cp go to the first in class order, with and
 * without repair. Repair is SCC-local (extract::CycleCheck): a class
 * outside every cyclic SCC of the class dependency graph can close no
 * cycle and is never checked, and one check in a cyclic SCC walks only
 * the chosen classes of that SCC, with an O(1) reset. Only when the
 * arg-max of a class in a cyclic SCC closes a cycle are its members
 * sorted by cp, and tried in that order. A sample therefore costs one
 * scan of each needed class's members plus one check per member tried
 * in a cyclic SCC; no check costs O(numClasses).
 *
 * A sampler is built once per seed and run and allocates nothing per
 * sample: its DFS stack, the cycle check's stamps and the output
 * Selection are members, and a sample resets only the classes the
 * previous one chose. SeedSampler adds the rest of the per-seed stage,
 * certification and the discrete cost, and reuses both for a sample
 * equal to the seed's previous one.
 */

#ifndef SMOOTHE_SMOOTHE_SAMPLER_HPP
#define SMOOTHE_SMOOTHE_SAMPLER_HPP

#include <vector>

#include "costmodel/cost_model.hpp"
#include "extraction/solution.hpp"
#include "obs/metrics.hpp"

namespace smoothe::core {

/** Cycle-aware greedy sampler over conditional probabilities. */
class GreedySampler
{
  public:
    /** @param sccs CyclicSccs::of(graph); must outlive the sampler */
    GreedySampler(const eg::EGraph& graph, const extract::CyclicSccs& sccs)
        : graph_(graph), sccs_(sccs), cycleCheck_(graph, sccs),
          sel_(extract::Selection::empty(graph))
    {}
    GreedySampler(const eg::EGraph&, extract::CyclicSccs&&) = delete;

    /**
     * Samples a selection from one seed's cp row.
     * @param cp_row numNodes() conditional probabilities
     * @param repair skip cycle-closing members instead of failing
     * @return the sampler's selection, overwritten by the next call;
     *         root entry is eg::kNoNode on dead ends
     */
    const extract::Selection& sample(const float* cp_row, bool repair);

  private:
    const eg::EGraph& graph_;
    const extract::CyclicSccs& sccs_;
    extract::CycleCheck cycleCheck_;
    extract::Selection sel_;
    std::vector<eg::ClassId> chosen_; ///< classes sel_ sets, to reset
    std::vector<eg::ClassId> stack_;
    std::vector<eg::NodeId> scratch_;
};

/**
 * One seed's sampling stage for one run: sample, certify with
 * extract::validate, score with the cost model. It keeps its last
 * certified choice vector with that vector's verdict and cost; both are
 * pure functions of the graph and the choice vector, so a sample equal
 * to it reuses them instead of validating and scoring again. Counts
 * every draw in `sampler.samples`, the valid ones in
 * `sampler.valid_samples` and the reused ones in `sampler.reused`.
 */
class SeedSampler
{
  public:
    /** Keeps references to all three; they must outlive the sampler. */
    SeedSampler(const eg::EGraph& graph, const extract::CyclicSccs& sccs,
                const cost::CostModel& model);
    SeedSampler(const eg::EGraph&, extract::CyclicSccs&&,
                const cost::CostModel&) = delete;

    /**
     * Draws one sample from a cp row (see GreedySampler::sample).
     * @return true when the sample is a valid extraction; selection()
     *         and cost() then describe it
     */
    bool draw(const float* cp_row, bool repair);

    /** The last sample that reached certification. */
    const extract::Selection& selection() const { return last_; }
    /** Its discrete cost; meaningful after draw() returned true. */
    double cost() const { return lastCost_; }

  private:
    const eg::EGraph& graph_;
    const extract::CyclicSccs& sccs_;
    const cost::CostModel& model_;
    GreedySampler sampler_;
    /** Starts empty, which equals no sample whose root is chosen, so
     *  the first such draw is always certified. */
    extract::Selection last_;
    bool lastValid_ = false;
    double lastCost_ = 0.0;
    extract::NodeIndicator indicator_;
    obs::Counter& samples_;
    obs::Counter& valid_;
    obs::Counter& reused_;
};

} // namespace smoothe::core

#endif // SMOOTHE_SMOOTHE_SAMPLER_HPP
