#include "costmodel/cost_model.hpp"

#include <cmath>

#include "autodiff/adam.hpp"
#include "autodiff/program.hpp"
#include "check/contracts.hpp"
#include "extraction/random_sample.hpp"

namespace smoothe::cost {

using ad::Param;
using ad::Tape;
using ad::Tensor;
using ad::VarId;

// --- LinearCost ---------------------------------------------------------

LinearCost::LinearCost(const eg::EGraph& graph)
{
    weights_.reserve(graph.numNodes());
    for (eg::NodeId nid = 0; nid < graph.numNodes(); ++nid)
        weights_.push_back(static_cast<float>(graph.node(nid).cost));
}

LinearCost::LinearCost(std::vector<float> weights)
    : weights_(std::move(weights))
{}

VarId
LinearCost::build(Tape& tape, VarId p) const
{
    return tape.dotRowsConst(p, weights_);
}

double
LinearCost::discrete(const extract::NodeIndicator& s) const
{
    SMOOTHE_CHECK(s.size == weights_.size(),
                  "indicator has %zu entries for %zu weights", s.size,
                  weights_.size());
    double total = 0.0;
    s.forEachSet([&](std::size_t i) { total += weights_[i]; });
    return total;
}

// --- MlpCost ------------------------------------------------------------

namespace {

constexpr std::size_t kHidden1 = 64;
constexpr std::size_t kHidden2 = 64;
constexpr std::size_t kHidden3 = 8;

Tensor
heInit(std::size_t rows, std::size_t cols, util::Rng& rng)
{
    Tensor t(rows, cols);
    const double stddev = std::sqrt(2.0 / static_cast<double>(rows));
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

} // namespace

MlpCost::MlpCost(std::size_t num_nodes, util::Rng& rng)
    : inputDim_(num_nodes),
      w1_(heInit(num_nodes, kHidden1, rng)), b1_(Tensor(1, kHidden1)),
      w2_(heInit(kHidden1, kHidden2, rng)), b2_(Tensor(1, kHidden2)),
      w3_(heInit(kHidden2, kHidden3, rng)), b3_(Tensor(1, kHidden3)),
      w4_(heInit(kHidden3, 1, rng)), b4_(Tensor(1, 1))
{}

VarId
MlpCost::build(Tape& tape, VarId p) const
{
    VarId h = tape.matmul(p, tape.leaf(&w1_));
    h = tape.relu(tape.addRowBroadcast(h, tape.leaf(&b1_)));
    h = tape.matmul(h, tape.leaf(&w2_));
    h = tape.relu(tape.addRowBroadcast(h, tape.leaf(&b2_)));
    h = tape.matmul(h, tape.leaf(&w3_));
    h = tape.relu(tape.addRowBroadcast(h, tape.leaf(&b3_)));
    h = tape.matmul(h, tape.leaf(&w4_));
    h = tape.addRowBroadcast(h, tape.leaf(&b4_));
    return h; // B x 1
}

double
MlpCost::discrete(const extract::NodeIndicator& s) const
{
    Tensor input(1, inputDim_);
    s.forEachSet([&](std::size_t i) {
        if (i < inputDim_)
            input.at(0, i) = 1.0f;
    });
    return forwardBatch(input).front();
}

std::vector<double>
MlpCost::forwardBatch(const Tensor& inputs) const
{
    Tape tape;
    const VarId x = tape.constant(inputs);
    const VarId out = build(tape, x);
    const Tensor& v = tape.value(out);
    std::vector<double> result(v.rows());
    for (std::size_t r = 0; r < v.rows(); ++r)
        result[r] = v.at(r, 0);
    return result;
}

double
MlpCost::trainSynthetic(const eg::EGraph& graph, std::size_t num_samples,
                        std::size_t epochs, util::Rng& rng)
{
    // Synthetic dataset per the paper: inputs are random *valid* discrete
    // extractions; targets are random negative numbers ("savings").
    const auto selections =
        extract::sampleRandomSelections(graph, num_samples, rng);
    Tensor inputs(num_samples, inputDim_);
    // Held negated: the loss records pred + (-t), exactly pred - t.
    Tensor negTargets(num_samples, 1);
    for (std::size_t row = 0; row < selections.size(); ++row) {
        selections[row].toNodeIndicator(graph).forEachSet(
            [&](std::size_t i) {
                if (i < inputDim_)
                    inputs.at(row, i) = 1.0f;
            });
        negTargets.at(row, 0) =
            -static_cast<float>(rng.uniform(-10.0, -1.0));
    }

    ad::Adam optimizer({&w1_, &b1_, &w2_, &b2_, &w3_, &b3_, &w4_, &b4_},
                       ad::AdamConfig{0.003f, 0.9f, 0.999f, 1e-8f});

    // Record the epoch graph once and replay it: leaf values alias the
    // Param storage, so every replay forwards through the freshly
    // stepped weights, bit-identical to rebuilding the tape per epoch.
    Tape tape;
    const VarId x = tape.constant(std::move(inputs));
    const VarId pred = build(tape, x);
    const VarId diff = tape.addConst(pred, std::move(negTargets));
    const VarId sq = tape.mul(diff, diff);
    const VarId loss = tape.scale(
        tape.sumAll(sq), 1.0f / static_cast<float>(num_samples));
    ad::Program program(std::move(tape), loss);

    double finalMse = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        optimizer.zeroGrad();
        program.forward();
        finalMse = program.value(loss).at(0, 0);
        program.backward();
        optimizer.step();
    }
    return finalMse;
}

// --- CompositeCost ------------------------------------------------------

CompositeCost::CompositeCost(std::shared_ptr<CostModel> linear,
                             std::shared_ptr<CostModel> nonlinear,
                             float scale)
    : linear_(std::move(linear)), nonlinear_(std::move(nonlinear)),
      scale_(scale)
{}

VarId
CompositeCost::build(Tape& tape, VarId p) const
{
    const VarId base = linear_->build(tape, p);
    const VarId correction = nonlinear_->build(tape, p);
    return tape.add(base, tape.scale(correction, scale_));
}

double
CompositeCost::discrete(const extract::NodeIndicator& s) const
{
    return linear_->discrete(s) + scale_ * nonlinear_->discrete(s);
}

} // namespace smoothe::cost
