/**
 * @file
 * Cost model tests: linear cost equivalence with DAG cost, MLP forward /
 * training / differentiability, composite model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "autodiff/gradcheck.hpp"
#include "autodiff/program.hpp"
#include "costmodel/cost_model.hpp"
#include "datasets/generators.hpp"
#include "extraction/random_sample.hpp"

namespace ad = smoothe::ad;
namespace cm = smoothe::cost;
namespace ds = smoothe::datasets;
namespace ex = smoothe::extract;
namespace eg = smoothe::eg;

TEST(LinearCost, MatchesDagCostOnValidSelections)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    const cm::LinearCost cost(g);
    smoothe::util::Rng rng(2);
    for (int i = 0; i < 20; ++i) {
        const auto sel = ex::sampleRandomSelection(g, rng);
        ASSERT_TRUE(sel.chosen(g.root()));
        EXPECT_DOUBLE_EQ(cost.discrete(sel.toNodeIndicator(g)),
                         ex::dagCost(g, sel));
    }
}

TEST(LinearCost, DiscreteMatchesDenseLoopBitwise)
{
    // Weights spanning many magnitudes, so a different summation order
    // would round differently; sizes around the 64-bit word boundaries.
    smoothe::util::Rng rng(19);
    for (const std::size_t n : {1UL, 63UL, 64UL, 65UL, 130UL, 1000UL}) {
        std::vector<float> weights(n);
        for (float& w : weights)
            w = static_cast<float>(rng.uniform(0.1, 1.0) *
                                   std::pow(10.0, rng.uniform(-6.0, 6.0)));
        const cm::LinearCost cost(weights);
        for (const double density : {0.0, 0.05, 0.5, 1.0}) {
            ex::NodeIndicator s(n);
            std::vector<bool> dense(n, false);
            for (std::size_t i = 0; i < n; ++i) {
                if (rng.bernoulli(density)) {
                    s.set(i);
                    dense[i] = true;
                }
            }
            // The loop over every entry that the set-bit walk replaced.
            double expected = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                if (dense[i])
                    expected += weights[i];
            }
            const double got = cost.discrete(s);
            EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
                << "n " << n << " density " << density;
        }
    }
}

TEST(LinearCost, BuildComputesDotProduct)
{
    const cm::LinearCost cost(std::vector<float>{1.0f, 2.0f, 3.0f});
    ad::Tape tape;
    ad::Tensor p(2, 3);
    p.at(0, 0) = 1.0f;
    p.at(0, 1) = 0.5f;
    p.at(0, 2) = 0.0f;
    p.at(1, 0) = 0.0f;
    p.at(1, 1) = 1.0f;
    p.at(1, 2) = 1.0f;
    const auto out = cost.build(tape, tape.constant(p));
    EXPECT_FLOAT_EQ(tape.value(out).at(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(tape.value(out).at(1, 0), 5.0f);
}

TEST(MlpCost, ForwardIsDeterministic)
{
    smoothe::util::Rng rng(10);
    cm::MlpCost mlp(12, rng);
    ex::NodeIndicator s(12);
    s.set(2);
    s.set(5);
    const double a = mlp.discrete(s);
    const double b = mlp.discrete(s);
    EXPECT_DOUBLE_EQ(a, b);
    s.set(7);
    EXPECT_NE(mlp.discrete(s), a); // input sensitivity (almost surely)
}

TEST(MlpCost, TrainingReducesMse)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    smoothe::util::Rng rng(11);
    cm::MlpCost mlp(g.numNodes(), rng);

    // Capture MSE after 1 epoch vs after many.
    smoothe::util::Rng rngA(13);
    cm::MlpCost fresh(g.numNodes(), rngA);
    smoothe::util::Rng dataRng(17);
    const double early = fresh.trainSynthetic(g, 32, 1, dataRng);
    smoothe::util::Rng rngB(13);
    cm::MlpCost trained(g.numNodes(), rngB);
    smoothe::util::Rng dataRng2(17);
    const double late = trained.trainSynthetic(g, 32, 120, dataRng2);
    EXPECT_LT(late, early);
}

TEST(MlpCost, GradientsFlowToInput)
{
    smoothe::util::Rng rng(19);
    cm::MlpCost mlp(6, rng);
    ad::Param p{ad::Tensor(2, 6, 0.5f)};
    const auto result = ad::checkGradients(
        {&p},
        [&](ad::Tape& tape) {
            return tape.sumAll(mlp.build(tape, tape.leaf(&p)));
        },
        1e-3, 5e-2);
    EXPECT_TRUE(result.ok) << result.maxRelError;
}

TEST(MlpCost, ForwardBatchMatchesDiscrete)
{
    smoothe::util::Rng rng(41);
    cm::MlpCost mlp(10, rng);
    ad::Tensor batch(3, 10);
    std::vector<ex::NodeIndicator> rows(3, ex::NodeIndicator(10));
    rows[0].set(1);
    rows[0].set(4);
    rows[1].set(0);
    rows[2].set(9);
    rows[2].set(3);
    rows[2].set(7);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t i = 0; i < 10; ++i)
            batch.at(r, i) = rows[r][i] ? 1.0f : 0.0f;
    }
    const auto outputs = mlp.forwardBatch(batch);
    ASSERT_EQ(outputs.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_NEAR(outputs[r], mlp.discrete(rows[r]), 1e-5);
}

TEST(MlpCost, CompiledLossMatchesTapeBitwise)
{
    // The MLP's training loss is the one recording that runs MatMul,
    // Relu and AddRowBroadcast through compiled replay: its MSE tail,
    // recorded as trainSynthetic records it, must give the Tape's loss
    // and input gradient bit for bit, on every replay.
    smoothe::util::Rng rng(53);
    constexpr std::size_t kRows = 7;
    constexpr std::size_t kCols = 12;
    cm::MlpCost mlp(kCols, rng);
    ad::Tensor input(kRows, kCols);
    for (std::size_t i = 0; i < input.size(); ++i)
        input.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    ad::Tensor negTargets(kRows, 1);
    for (std::size_t r = 0; r < kRows; ++r)
        negTargets.at(r, 0) = -static_cast<float>(rng.uniform(-10.0, -1.0));
    auto recordLoss = [&](ad::Tape& tape, ad::Param& x) {
        const ad::VarId diff =
            tape.addConst(mlp.build(tape, tape.leaf(&x)), negTargets);
        return tape.scale(tape.sumAll(tape.mul(diff, diff)),
                          1.0f / static_cast<float>(kRows));
    };

    ad::Param tapeInput{input};
    ad::Tape tape;
    const ad::VarId tapeLoss = recordLoss(tape, tapeInput);
    tape.backward(tapeLoss);

    ad::Param programInput{input};
    ad::Tape recording;
    const ad::VarId programLoss = recordLoss(recording, programInput);
    ad::Program program(std::move(recording), programLoss);
    for (int replay = 0; replay < 2; ++replay) {
        programInput.zeroGrad();
        program.forward();
        program.backward();
        EXPECT_EQ(std::memcmp(tape.value(tapeLoss).data(),
                              program.value(programLoss).data(),
                              sizeof(float)),
                  0)
            << "replay " << replay;
        EXPECT_EQ(std::memcmp(tapeInput.grad.data(),
                              programInput.grad.data(),
                              input.size() * sizeof(float)),
                  0)
            << "replay " << replay;
    }
}

TEST(MlpCost, DifferentSeedsDifferentModels)
{
    smoothe::util::Rng rngA(1);
    smoothe::util::Rng rngB(2);
    cm::MlpCost a(8, rngA);
    cm::MlpCost b(8, rngB);
    ex::NodeIndicator s(8);
    s.set(2);
    s.set(6);
    EXPECT_NE(a.discrete(s), b.discrete(s));
}

TEST(CompositeCost, AddsComponents)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    auto linear = std::make_shared<cm::LinearCost>(g);
    smoothe::util::Rng rng(23);
    auto mlp = std::make_shared<cm::MlpCost>(g.numNodes(), rng);
    const cm::CompositeCost composite(linear, mlp, 0.5f);

    ex::NodeIndicator s(g.numNodes());
    s.set(0);
    s.set(3);
    EXPECT_NEAR(composite.discrete(s),
                linear->discrete(s) + 0.5 * mlp->discrete(s), 1e-9);
}

TEST(CompositeCost, BuildMatchesDiscreteOnBinaryInput)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    auto linear = std::make_shared<cm::LinearCost>(g);
    smoothe::util::Rng rng(29);
    auto mlp = std::make_shared<cm::MlpCost>(g.numNodes(), rng);
    const cm::CompositeCost composite(linear, mlp, 1.0f);

    smoothe::util::Rng selRng(31);
    const auto sel = ex::sampleRandomSelection(g, selRng);
    const auto indicator = sel.toNodeIndicator(g);

    ad::Tape tape;
    ad::Tensor p(1, g.numNodes());
    for (std::size_t i = 0; i < indicator.size; ++i)
        p.at(0, i) = indicator[i] ? 1.0f : 0.0f;
    const auto out = composite.build(tape, tape.constant(p));
    EXPECT_NEAR(tape.value(out).at(0, 0), composite.discrete(indicator),
                1e-3);
}
