/**
 * @file
 * Differentiable cost models (Section 3.2, Section 5.5).
 *
 * A CostModel plays two roles:
 *  - during SmoothE optimization it builds the differentiable objective
 *    f(p) on the autodiff tape, mapping the relaxed selection
 *    probabilities p (B x N, one row per seed) to a per-seed cost (B x 1);
 *  - during sampling / baseline evaluation it scores a *discrete* binary
 *    selection s.
 *
 * The linear model f(p) = u^T p is the paper's Table 2/3/4 objective; the
 * MLP model is the Section 5.5 non-linear benchmark; Composite adds the
 * MLP correction term on top of the linear base:
 * f(x) = f_linear(x) + f_nonlinear(x).
 */

#ifndef SMOOTHE_COSTMODEL_COST_MODEL_HPP
#define SMOOTHE_COSTMODEL_COST_MODEL_HPP

#include <memory>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "egraph/egraph.hpp"
#include "extraction/solution.hpp"
#include "util/rng.hpp"

namespace smoothe::cost {

/** Abstract differentiable cost model over e-node selections. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Human-readable name for tables. */
    virtual std::string name() const = 0;

    /**
     * Builds the relaxed objective on the tape.
     * @param tape the active tape
     * @param p B x N selection probabilities
     * @return a B x 1 node holding the per-seed cost
     */
    virtual ad::VarId build(ad::Tape& tape, ad::VarId p) const = 0;

    /** Scores a discrete binary selection (s[i] = e-node i chosen). */
    virtual double discrete(const extract::NodeIndicator& s) const = 0;
};

/** f(p) = u^T p with u taken from the e-graph's per-node costs. */
class LinearCost : public CostModel
{
  public:
    /** Builds u from graph.node(i).cost. */
    explicit LinearCost(const eg::EGraph& graph);
    /** Builds from an explicit weight vector. */
    explicit LinearCost(std::vector<float> weights);

    std::string name() const override { return "linear"; }
    ad::VarId build(ad::Tape& tape, ad::VarId p) const override;
    /** u^T s over the set bits only, summed in ascending node order. */
    double discrete(const extract::NodeIndicator& s) const override;

  private:
    std::vector<float> weights_;
};

/**
 * The paper's 4-layer MLP: N -> 64 -> 64 -> 8 -> 1 with ReLU, producing a
 * scalar (negative) correction per selection. Trainable on synthetic
 * regression data per Section 5.5.
 */
class MlpCost : public CostModel
{
  public:
    /**
     * @param num_nodes input dimension N
     * @param rng initializes the weights (He initialization)
     */
    MlpCost(std::size_t num_nodes, util::Rng& rng);

    std::string name() const override { return "mlp"; }
    ad::VarId build(ad::Tape& tape, ad::VarId p) const override;
    double discrete(const extract::NodeIndicator& s) const override;

    /**
     * Trains on synthetic data following the paper: random valid
     * extractions as inputs, random negative targets (savings) as labels,
     * MSE regression with Adam.
     * @param graph source of valid random selections
     * @param num_samples synthetic dataset size
     * @param epochs full passes over the dataset
     * @param rng sampling and shuffling
     * @return final training MSE
     */
    double trainSynthetic(const eg::EGraph& graph, std::size_t num_samples,
                          std::size_t epochs, util::Rng& rng);

    /** Direct forward evaluation on a batch of indicator rows (B x N). */
    std::vector<double> forwardBatch(const ad::Tensor& inputs) const;

  private:
    std::size_t inputDim_;
    // Parameters are mutable state owned by the model; build() reads them.
    mutable ad::Param w1_, b1_, w2_, b2_, w3_, b3_, w4_, b4_;
};

/** f(x) = linear(x) + scale * nonlinear(x). */
class CompositeCost : public CostModel
{
  public:
    CompositeCost(std::shared_ptr<CostModel> linear,
                  std::shared_ptr<CostModel> nonlinear, float scale = 1.0f);

    std::string name() const override { return "linear+mlp"; }
    ad::VarId build(ad::Tape& tape, ad::VarId p) const override;
    double discrete(const extract::NodeIndicator& s) const override;

  private:
    std::shared_ptr<CostModel> linear_;
    std::shared_ptr<CostModel> nonlinear_;
    float scale_;
};

} // namespace smoothe::cost

#endif // SMOOTHE_COSTMODEL_COST_MODEL_HPP
