#include "extraction/genetic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "extraction/bottom_up.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace smoothe::extract {

using eg::EGraph;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr std::size_t kPopulation = 48;
constexpr std::size_t kGenerations = 60;
constexpr std::size_t kTournamentSize = 3;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.02; ///< per-gene reset probability
constexpr std::size_t kElites = 2;     ///< genomes copied unchanged

using Genome = std::vector<double>;

Genome
randomGenome(std::size_t n, util::Rng& rng)
{
    Genome g(n);
    for (double& key : g)
        key = rng.uniform(0.01, 1.0);
    return g;
}

} // namespace

ExtractionResult
GeneticExtractor::extractImpl(const EGraph& graph,
                              const ExtractOptions& options)
{
    return extractWithCost(graph, dagCost, options);
}

ExtractionResult
GeneticExtractor::extractWithCost(const EGraph& graph,
                                  const DiscreteCost& cost,
                                  const ExtractOptions& options)
{
    util::Timer timer;
    util::Deadline deadline(options.timeLimitSeconds);
    util::Rng rng(options.seed);

    const std::size_t n = graph.numNodes();

    struct Individual
    {
        Genome genome;
        Selection selection;
        double fitness = kInf;
    };

    auto evaluate = [&](Individual& ind) {
        ind.selection = bottomUpWithCosts(graph, ind.genome);
        if (!ind.selection.chosen(graph.root())) {
            ind.fitness = kInf;
            return;
        }
        ind.fitness = cost(graph, ind.selection);
    };

    std::vector<Individual> population(kPopulation);
    for (auto& ind : population) {
        ind.genome = randomGenome(n, rng);
        evaluate(ind);
    }

    auto best = [&]() -> const Individual& {
        const auto it = std::min_element(
            population.begin(), population.end(),
            [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
            });
        return *it;
    };

    ExtractionResult result;
    double incumbent = best().fitness;
    if (incumbent < kInf)
        result.trace.push_back({timer.seconds(), incumbent});

    auto tournament = [&]() -> const Individual& {
        const Individual* winner =
            &population[rng.uniformIndex(population.size())];
        for (std::size_t k = 1; k < kTournamentSize; ++k) {
            const Individual& candidate =
                population[rng.uniformIndex(population.size())];
            if (candidate.fitness < winner->fitness)
                winner = &candidate;
        }
        return *winner;
    };

    static obs::Counter& generations = obs::counter("genetic.generations");
    for (std::size_t gen = 0;
         gen < kGenerations && !deadline.expired(); ++gen) {
        obs::Span genSpan("generation", "genetic");
        generations.add(1);
        std::vector<Individual> next;
        next.reserve(kPopulation);

        // Elitism: carry the best genomes unchanged.
        std::vector<std::size_t> order(population.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::partial_sort(
            order.begin(), order.begin() + kElites, order.end(),
            [&](std::size_t a, std::size_t b) {
                return population[a].fitness < population[b].fitness;
            });
        for (std::size_t e = 0; e < kElites; ++e)
            next.push_back(population[order[e]]);

        while (next.size() < kPopulation) {
            Individual child;
            const Individual& parentA = tournament();
            if (rng.bernoulli(kCrossoverRate)) {
                const Individual& parentB = tournament();
                child.genome.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    child.genome[i] = rng.bernoulli(0.5)
                                          ? parentA.genome[i]
                                          : parentB.genome[i];
                }
            } else {
                child.genome = parentA.genome;
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.bernoulli(kMutationRate))
                    child.genome[i] = rng.uniform(0.01, 1.0);
            }
            evaluate(child);
            next.push_back(std::move(child));
        }
        population = std::move(next);

        const double current = best().fitness;
        if (current < incumbent) {
            incumbent = current;
            obs::traceCounter("genetic.best_cost", incumbent);
            result.trace.push_back({timer.seconds(), incumbent});
        }
    }

    const Individual& winner = best();
    result.seconds = timer.seconds();
    if (winner.fitness == kInf) {
        result.status = SolveStatus::Failed;
        result.cost = kInf;
        return result;
    }
    result.status = SolveStatus::Feasible;
    result.selection = winner.selection;
    result.cost = winner.fitness;
    return result;
}

} // namespace smoothe::extract
