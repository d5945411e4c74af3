/**
 * @file
 * Direct tests for the discrete sampling stage (Section 3.5): arg-max
 * behaviour, cycle repair, determinism, dead ends.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "datasets/registry.hpp"
#include "smoothe/sampler.hpp"
#include "util/rng.hpp"

namespace core = smoothe::core;
namespace ds = smoothe::datasets;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;

namespace {

/** cp row that deterministically prefers the given nodes. */
std::vector<float>
preferenceRow(const eg::EGraph& graph, const std::set<eg::NodeId>& prefer)
{
    std::vector<float> cp(graph.numNodes(), 0.0f);
    for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        const auto& members = graph.nodesInClass(cls);
        float low = 1.0f / (members.size() + 1.0f);
        for (eg::NodeId nid : members)
            cp[nid] = prefer.count(nid) ? 0.9f : low;
    }
    return cp;
}

} // namespace

TEST(Sampler, ArgMaxFollowsCp)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::GreedySampler sampler(g);

    // Prefer the optimal Figure 2c nodes: inner add (node 8).
    const auto cp = preferenceRow(g, {8});
    const auto sel = sampler.sample(cp.data(), true);
    ASSERT_TRUE(sel.chosen(g.root()));
    EXPECT_TRUE(ex::validate(g, sel).ok());
    EXPECT_EQ(sel.choice[6], 8u); // sec2 class picks the rewritten add
    EXPECT_DOUBLE_EQ(ex::dagCost(g, sel), 19.0);
}

TEST(Sampler, RepairAvoidsCycle)
{
    // Class a's preferred node closes a cycle; repair must fall back to
    // the lower-cp acyclic alternative.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 0.0);
    const auto fab = g.addNode(a, "fab", {b}, 0.0);
    g.addNode(a, "leafA", {}, 1.0);
    const auto gba = g.addNode(b, "gba", {a}, 0.0);
    const auto leafB = g.addNode(b, "leafB", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    core::GreedySampler sampler(g);
    std::vector<float> cp(g.numNodes(), 0.1f);
    cp[0] = 1.0f;   // root node
    cp[fab] = 0.9f; // prefer the cyclic pair
    cp[gba] = 0.9f;
    cp[leafB] = 0.1f;

    const auto repaired = sampler.sample(cp.data(), true);
    ASSERT_TRUE(repaired.chosen(g.root()));
    EXPECT_TRUE(ex::validate(g, repaired).ok());

    // Without repair the arg-max sample is cyclic and caught by validate.
    const auto raw = sampler.sample(cp.data(), false);
    ASSERT_TRUE(raw.chosen(g.root()));
    EXPECT_EQ(ex::validate(g, raw).violation, ex::Violation::Cyclic);
}

TEST(Sampler, InfeasibleGraphReportsDeadEnd)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addNode(root, "self", {root}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    core::GreedySampler sampler(g);
    std::vector<float> cp(g.numNodes(), 1.0f);
    const auto sel = sampler.sample(cp.data(), true);
    EXPECT_FALSE(sel.chosen(g.root()));
}

TEST(Sampler, ArgMaxIsDeterministic)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    core::GreedySampler sampler(g);
    const auto cp = preferenceRow(g, {7}); // prefer square(sec)
    const auto a = sampler.sample(cp.data(), true);
    const auto b = sampler.sample(cp.data(), true);
    EXPECT_EQ(a.choice, b.choice);
}

TEST(Sampler, RepairedSamplesValidAcrossFamilies)
{
    // Repair is greedy (no backtracking), so a sample can rarely dead-end
    // on strongly cyclic graphs — SmoothE just discards those seeds. The
    // property: every *returned* sample validates, and dead ends are the
    // exception, not the rule.
    smoothe::util::Rng rng(6);
    for (const char* family : {"tensat", "rover", "set"}) {
        const auto graphs = ds::loadFamily(family, 0.05, 55);
        const eg::EGraph& g = graphs.front().graph;
        core::GreedySampler sampler(g);
        std::vector<float> cp(g.numNodes());
        int valid = 0;
        const int trials = 20;
        for (int trial = 0; trial < trials; ++trial) {
            for (auto& v : cp)
                v = static_cast<float>(rng.uniform(0.0, 1.0));
            const auto sel = sampler.sample(cp.data(), true);
            if (!sel.chosen(g.root()))
                continue; // dead end: discarded, never "invalid"
            EXPECT_TRUE(ex::validate(g, sel).ok()) << family;
            ++valid;
        }
        EXPECT_GE(valid, trials / 2) << family;
    }
}
