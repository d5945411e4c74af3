/**
 * @file
 * Direct tests for the discrete sampling stage (Section 3.5): arg-max
 * behaviour, cycle repair, determinism, dead ends, the tie rule, and the
 * SCC-local repair check against a whole-graph reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "costmodel/cost_model.hpp"
#include "datasets/registry.hpp"
#include "obs/metrics.hpp"
#include "smoothe/sampler.hpp"
#include "util/rng.hpp"

namespace core = smoothe::core;
namespace cost = smoothe::cost;
namespace ds = smoothe::datasets;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;
namespace obs = smoothe::obs;

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

/**
 * The repaired sampler with the whole-graph cycle check: members are
 * tried in decreasing cp, ties in member order, and after choosing one a
 * DFS runs over every chosen class from its children, with a fresh
 * visited set per check.
 */
ex::Selection
referenceRepairedSample(const eg::EGraph& graph, const float* cp)
{
    auto createsCycle = [&](const ex::Selection& sel, eg::ClassId cls) {
        std::vector<bool> visited(graph.numClasses(), false);
        std::vector<eg::ClassId> dfs;
        auto pushChildren = [&](eg::ClassId from) {
            for (eg::ClassId child : graph.node(sel.choice[from]).children) {
                if (sel.chosen(child) && !visited[child]) {
                    visited[child] = true;
                    dfs.push_back(child);
                }
            }
        };
        pushChildren(cls);
        while (!dfs.empty()) {
            const eg::ClassId cur = dfs.back();
            dfs.pop_back();
            if (cur == cls)
                return true;
            pushChildren(cur);
        }
        return false;
    };

    ex::Selection sel = ex::Selection::empty(graph);
    std::vector<eg::ClassId> stack{graph.root()};
    while (!stack.empty()) {
        const eg::ClassId cls = stack.back();
        stack.pop_back();
        if (sel.chosen(cls))
            continue;
        std::vector<eg::NodeId> order(graph.nodesInClass(cls).begin(),
                                      graph.nodesInClass(cls).end());
        std::stable_sort(order.begin(), order.end(),
                         [&](eg::NodeId a, eg::NodeId b) {
                             return cp[a] > cp[b];
                         });
        eg::NodeId chosen = eg::kNoNode;
        for (eg::NodeId nid : order) {
            sel.choice[cls] = nid;
            if (!createsCycle(sel, cls)) {
                chosen = nid;
                break;
            }
            sel.choice[cls] = eg::kNoNode;
        }
        if (chosen == eg::kNoNode) {
            sel.choice[graph.root()] = eg::kNoNode;
            return sel;
        }
        for (eg::ClassId child : graph.node(chosen).children) {
            if (!sel.chosen(child))
                stack.push_back(child);
        }
    }
    return sel;
}

} // namespace

TEST(Sampler, ArgMaxFollowsCp)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    const auto sccs = ex::CyclicSccs::of(g);
    core::GreedySampler sampler(g, sccs);

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

    const auto sccs = ex::CyclicSccs::of(g);
    core::GreedySampler sampler(g, sccs);
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
    const auto sccs = ex::CyclicSccs::of(g);
    core::GreedySampler sampler(g, sccs);
    std::vector<float> cp(g.numNodes(), 1.0f);
    const auto sel = sampler.sample(cp.data(), true);
    EXPECT_FALSE(sel.chosen(g.root()));
}

TEST(Sampler, ArgMaxIsDeterministic)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    const auto sccs = ex::CyclicSccs::of(g);
    core::GreedySampler sampler(g, sccs);
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
        const auto sccs = ex::CyclicSccs::of(g);
        core::GreedySampler sampler(g, sccs);
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

TEST(Sampler, SccLocalRepairMatchesWholeGraphReference)
{
    smoothe::util::Rng rng(22);
    const int rows = 50;
    for (const char* family : {"tensat", "rover", "flexc", "diospyros"}) {
        int repairedRows = 0;
        for (const auto& named : ds::loadFamily(family, 0.05, 55)) {
            const eg::EGraph& g = named.graph;
            const auto sccs = ex::CyclicSccs::of(g);
            core::GreedySampler sampler(g, sccs);
            std::vector<float> cp(g.numNodes());
            for (int row = 0; row < rows; ++row) {
                for (auto& v : cp)
                    v = static_cast<float>(rng.uniform(0.0, 1.0));
                const auto repaired = sampler.sample(cp.data(), true);
                EXPECT_EQ(repaired.choice,
                          referenceRepairedSample(g, cp.data()).choice)
                    << named.name << " row " << row;
                if (repaired.choice != sampler.sample(cp.data(), false).choice)
                    ++repairedRows;
            }
        }
        // The rows must exercise repair, not just the arg-max path.
        EXPECT_GT(repairedRows, 0) << family;
    }
}

TEST(Sampler, RepairFallsBackInEveryCyclicScc)
{
    // Two disjoint 2-class SCCs {a1, a2} and {b1, b2}, plus a class s with
    // a self-loop. Every preferred node leads back into its own SCC, so
    // the class of each SCC that is sampled second, and s itself, must
    // fall back to its leaf.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a1 = g.addClass();
    const auto a2 = g.addClass();
    const auto b1 = g.addClass();
    const auto b2 = g.addClass();
    const auto s = g.addClass();
    const auto r = g.addNode(root, "r", {a1, b1, s}, 0.0);
    const auto fa1 = g.addNode(a1, "fa1", {a2}, 0.0);
    g.addNode(a1, "leafA1", {}, 1.0);
    const auto fa2 = g.addNode(a2, "fa2", {a1}, 0.0);
    const auto leafA2 = g.addNode(a2, "leafA2", {}, 1.0);
    const auto fb1 = g.addNode(b1, "fb1", {b2}, 0.0);
    g.addNode(b1, "leafB1", {}, 1.0);
    const auto fb2 = g.addNode(b2, "fb2", {b1}, 0.0);
    const auto leafB2 = g.addNode(b2, "leafB2", {}, 1.0);
    const auto loop = g.addNode(s, "loop", {s}, 0.0);
    const auto leafS = g.addNode(s, "leafS", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    const auto sccs = ex::CyclicSccs::of(g);
    ASSERT_EQ(sccs.classes.size(), 3u);
    EXPECT_EQ(sccs.id[root], ex::CyclicSccs::kNone);
    EXPECT_EQ(sccs.id[a1], sccs.id[a2]);
    EXPECT_EQ(sccs.id[b1], sccs.id[b2]);
    EXPECT_NE(sccs.id[a1], sccs.id[b1]);
    EXPECT_NE(sccs.id[s], ex::CyclicSccs::kNone);
    EXPECT_NE(sccs.id[s], sccs.id[a1]);
    EXPECT_NE(sccs.id[s], sccs.id[b1]);

    std::vector<float> cp(g.numNodes(), 0.1f);
    for (eg::NodeId preferred : {r, fa1, fa2, fb1, fb2, loop})
        cp[preferred] = 0.9f;

    core::GreedySampler sampler(g, sccs);
    const auto sel = sampler.sample(cp.data(), true);
    ASSERT_TRUE(sel.chosen(g.root()));
    EXPECT_TRUE(ex::validate(g, sel).ok());
    EXPECT_EQ(sel.choice, referenceRepairedSample(g, cp.data()).choice);
    // The root pushes a1, b1, s; the stack visits s, then b1 -> b2, then
    // a1 -> a2.
    EXPECT_EQ(sel.choice[s], leafS);
    EXPECT_EQ(sel.choice[b1], fb1);
    EXPECT_EQ(sel.choice[b2], leafB2);
    EXPECT_EQ(sel.choice[a1], fa1);
    EXPECT_EQ(sel.choice[a2], leafA2);
}

TEST(Sampler, RepairIsArgMaxOnAcyclicFamilies)
{
    // With no cyclic SCC nothing is ever checked, so the repaired sample
    // is the paper's plain arg-max sample.
    smoothe::util::Rng rng(23);
    for (const char* family : {"impress", "set", "maxsat"}) {
        const auto graphs = ds::loadFamily(family, 0.05, 55);
        const eg::EGraph& g = graphs.front().graph;
        const auto sccs = ex::CyclicSccs::of(g);
        EXPECT_TRUE(sccs.classes.empty()) << family;
        core::GreedySampler sampler(g, sccs);
        std::vector<float> cp(g.numNodes());
        for (int row = 0; row < 50; ++row) {
            for (auto& v : cp)
                v = static_cast<float>(rng.uniform(0.0, 1.0));
            // A copy: the next sample() overwrites the sampler's own.
            const ex::Selection repaired = sampler.sample(cp.data(), true);
            EXPECT_EQ(repaired.choice, sampler.sample(cp.data(), false).choice)
                << family << " row " << row;
        }
    }
}

TEST(Sampler, TiesInLargeClassesGoToTheFirstMember)
{
    // Two 24-member classes whose top cp values are tied: a outside every
    // cyclic SCC, and s, a self-loop class, whose odd members loop back
    // to s. Past 16 members an unstable sort may reorder the ties, so
    // this pins the rule: the first tied member in class order wins, and
    // in s, with repair, the first tied member that closes no cycle.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto s = g.addClass();
    g.addNode(root, "r", {a, s}, 0.0);
    const std::size_t members = 24;
    std::vector<eg::NodeId> aNodes;
    std::vector<eg::NodeId> sNodes;
    for (std::size_t i = 0; i < members; ++i) {
        const std::string tag = std::to_string(i);
        aNodes.push_back(g.addNode(a, "a" + tag, {}, 1.0));
        if (i % 2 == 1)
            sNodes.push_back(g.addNode(s, "loop" + tag, {s}, 1.0));
        else
            sNodes.push_back(g.addNode(s, "leaf" + tag, {}, 1.0));
    }
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    const auto sccs = ex::CyclicSccs::of(g);
    ASSERT_EQ(sccs.id[a], ex::CyclicSccs::kNone);
    ASSERT_NE(sccs.id[s], ex::CyclicSccs::kNone);

    // a ties at members 3, 7, 8, 15 and 20; s at every member but 0.
    std::vector<float> cp(g.numNodes(), 0.5f);
    for (std::size_t i : {3, 7, 8, 15, 20})
        cp[aNodes[i]] = 0.75f;
    cp[sNodes[0]] = 0.25f;

    core::GreedySampler sampler(g, sccs);
    const auto repaired = sampler.sample(cp.data(), true);
    ASSERT_TRUE(repaired.chosen(g.root()));
    EXPECT_EQ(repaired.choice[a], aNodes[3]);
    EXPECT_EQ(repaired.choice[s], sNodes[2]); // sNodes[1] loops
    EXPECT_EQ(repaired.choice, referenceRepairedSample(g, cp.data()).choice);
    EXPECT_TRUE(ex::validate(g, repaired).ok());

    const auto raw = sampler.sample(cp.data(), false);
    ASSERT_TRUE(raw.chosen(g.root()));
    EXPECT_EQ(raw.choice[a], aNodes[3]);
    EXPECT_EQ(raw.choice[s], sNodes[1]);
    EXPECT_EQ(ex::validate(g, raw).violation, ex::Violation::Cyclic);
}

TEST(Sampler, SeedSamplerReusesRepeatedSamples)
{
    // A cp sequence with repeated samples: a row drawn twice in a row, a
    // row scaled by one half (another cp, the same arg-max sample), and a
    // row that comes back after others. Each draw must give the verdict
    // and cost of validating and scoring that sample afresh, and the
    // counters must count exactly as if every sample were validated.
    obs::Counter& samples = obs::counter("sampler.samples");
    obs::Counter& valid = obs::counter("sampler.valid_samples");
    obs::Counter& reused = obs::counter("sampler.reused");
    smoothe::util::Rng rng(37);
    std::size_t totalRepeats = 0;
    for (const char* family : {"tensat", "rover", "impress", "set"}) {
        const auto graphs = ds::loadFamily(family, 0.05, 55);
        const eg::EGraph& g = graphs.front().graph;
        const auto sccs = ex::CyclicSccs::of(g);
        const cost::LinearCost model(g);
        std::vector<std::vector<float>> base(4,
                                             std::vector<float>(g.numNodes()));
        for (auto& row : base)
            for (auto& v : row)
                v = static_cast<float>(rng.uniform(0.0, 1.0));
        std::vector<float> half = base[1];
        for (auto& v : half)
            v *= 0.5f;
        const std::vector<const std::vector<float>*> sequence{
            &base[0], &base[0], &base[1], &half,    &base[2],
            &base[0], &base[3], &base[3], &base[3], &base[1]};

        for (const bool repair : {true, false}) {
            SCOPED_TRACE(std::string(family) +
                         (repair ? " repair" : " no repair"));
            core::SeedSampler seed(g, sccs, model);
            core::GreedySampler reference(g, sccs);
            const std::uint64_t samples0 = samples.get();
            const std::uint64_t valid0 = valid.get();
            const std::uint64_t reused0 = reused.get();
            std::size_t expectValid = 0;
            std::size_t repeats = 0;
            std::optional<std::vector<eg::NodeId>> previous;
            for (std::size_t k = 0; k < sequence.size(); ++k) {
                const float* row = sequence[k]->data();
                const bool drawn = seed.draw(row, repair);
                const ex::Selection sample = reference.sample(row, repair);
                const bool rooted = sample.chosen(g.root());
                const bool ok = rooted && ex::validate(g, sample).ok();
                EXPECT_EQ(drawn, ok) << "draw " << k;
                if (rooted) {
                    repeats += previous && *previous == sample.choice;
                    previous = sample.choice;
                    EXPECT_EQ(seed.selection().choice, sample.choice);
                }
                if (ok) {
                    ++expectValid;
                    const double fresh =
                        model.discrete(sample.toNodeIndicator(g));
                    const double got = seed.cost();
                    EXPECT_EQ(std::memcmp(&fresh, &got, sizeof got), 0)
                        << "draw " << k;
                }
            }
            EXPECT_EQ(samples.get() - samples0, sequence.size());
            EXPECT_EQ(valid.get() - valid0, expectValid);
            EXPECT_EQ(reused.get() - reused0, repeats);
            totalRepeats += repeats;
        }
    }
    EXPECT_GT(totalRepeats, 0u);
}
