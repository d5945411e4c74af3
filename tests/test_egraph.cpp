/**
 * @file
 * Unit tests for the e-graph data structure, serialization, and graph
 * algorithms (SCC, pruning, reachability).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "datasets/registry.hpp"
#include "egraph/egraph.hpp"
#include "egraph/serialize.hpp"
#include "extraction/solution.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace eg = smoothe::eg;

namespace {

/** The one cycle concept: no cyclic SCC (size > 1 or a self-loop). */
bool
acyclic(const eg::EGraph& g)
{
    return smoothe::extract::CyclicSccs::of(g).classes.empty();
}

/** Small diamond: root -> {a, b} -> shared leaf. */
eg::EGraph
diamond()
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    const auto leaf = g.addClass();
    g.addNode(root, "+", {a, b}, 1.0);
    g.addNode(a, "f", {leaf}, 2.0);
    g.addNode(b, "g", {leaf}, 3.0);
    g.addNode(leaf, "x", {}, 0.5);
    g.setRoot(root);
    EXPECT_FALSE(g.finalize().has_value());
    return g;
}

/**
 * EGraph::classSccs() as it was with one adjacency vector per class:
 * children sorted and deduplicated per class, then the same iterative
 * Tarjan. The reference for the flat-adjacency version's output order.
 */
std::vector<std::vector<eg::ClassId>>
referenceClassSccs(const eg::EGraph& g)
{
    const std::size_t m = g.numClasses();
    std::vector<std::vector<eg::ClassId>> adj(m);
    for (std::size_t j = 0; j < m; ++j) {
        std::vector<eg::ClassId> out;
        for (eg::NodeId nid : g.nodesInClass(static_cast<eg::ClassId>(j))) {
            for (eg::ClassId child : g.node(nid).children)
                out.push_back(child);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        adj[j] = std::move(out);
    }

    constexpr std::uint32_t unvisited =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> index(m, unvisited);
    std::vector<std::uint32_t> lowlink(m, 0);
    std::vector<bool> onStack(m, false);
    std::vector<eg::ClassId> stack;
    std::vector<std::vector<eg::ClassId>> sccs;
    std::uint32_t counter = 0;
    struct Frame
    {
        eg::ClassId v;
        std::size_t childIdx;
    };
    std::vector<Frame> callStack;
    for (eg::ClassId start = 0; start < m; ++start) {
        if (index[start] != unvisited)
            continue;
        callStack.push_back({start, 0});
        while (!callStack.empty()) {
            Frame& frame = callStack.back();
            const eg::ClassId v = frame.v;
            if (frame.childIdx == 0) {
                index[v] = lowlink[v] = counter++;
                stack.push_back(v);
                onStack[v] = true;
            }
            bool descended = false;
            while (frame.childIdx < adj[v].size()) {
                const eg::ClassId w = adj[v][frame.childIdx++];
                if (index[w] == unvisited) {
                    callStack.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    lowlink[v] = std::min(lowlink[v], index[w]);
            }
            if (descended)
                continue;
            if (lowlink[v] == index[v]) {
                std::vector<eg::ClassId> component;
                while (true) {
                    const eg::ClassId w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    component.push_back(w);
                    if (w == v)
                        break;
                }
                sccs.push_back(std::move(component));
            }
            callStack.pop_back();
            if (!callStack.empty()) {
                Frame& parent = callStack.back();
                lowlink[parent.v] = std::min(lowlink[parent.v], lowlink[v]);
            }
        }
    }
    return sccs;
}

} // namespace

TEST(EGraph, BuildAndQuery)
{
    eg::EGraph g = diamond();
    EXPECT_EQ(g.numClasses(), 4u);
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.root(), 0u);
    EXPECT_EQ(g.node(0).op, "+");
    EXPECT_EQ(g.classOf(0), 0u);
    EXPECT_EQ(g.nodesInClass(3).size(), 1u);
}

TEST(EGraph, FlatIndicesMatchNodesAndClasses)
{
    // Nodes added to random classes in interleaved order, with forward
    // references, repeated children and leaves.
    smoothe::util::Rng rng(17);
    const std::size_t m = 40;
    eg::EGraph g;
    for (std::size_t j = 0; j < m; ++j)
        g.addClass();
    struct Spec
    {
        eg::ClassId cls;
        std::string op;
        std::vector<eg::ClassId> children;
        double cost;
    };
    std::vector<Spec> specs;
    for (eg::ClassId cls = 0; cls < m; ++cls)
        specs.push_back({cls, "leaf" + std::to_string(cls), {}, 1.0});
    for (int i = 0; i < 160; ++i) {
        Spec spec{static_cast<eg::ClassId>(rng.uniformIndex(m)),
                  "op" + std::to_string(i), {}, rng.uniform(0.0, 9.0)};
        const std::size_t arity = rng.uniformIndex(4);
        for (std::size_t k = 0; k < arity; ++k)
            spec.children.push_back(
                static_cast<eg::ClassId>(rng.uniformIndex(m)));
        if (arity > 0 && rng.bernoulli(0.2))
            spec.children.push_back(spec.children.front());
        specs.push_back(std::move(spec));
    }
    std::swap(specs[3], specs[100]);
    for (const Spec& spec : specs)
        g.addNode(spec.cls, spec.op, spec.children, spec.cost);
    g.setRoot(0);
    ASSERT_FALSE(g.finalize().has_value());

    std::vector<std::vector<eg::NodeId>> members(m);
    std::size_t edges = 0;
    for (eg::NodeId nid = 0; nid < specs.size(); ++nid) {
        const Spec& spec = specs[nid];
        EXPECT_EQ(g.classOf(nid), spec.cls);
        EXPECT_EQ(g.node(nid).op, spec.op);
        EXPECT_EQ(g.node(nid).cost, spec.cost);
        const auto children = g.children(nid);
        EXPECT_TRUE(std::ranges::equal(children, spec.children)) << nid;
        EXPECT_EQ(g.node(nid).children.data(), children.data());
        EXPECT_EQ(g.node(nid).children.size(), children.size());
        members[spec.cls].push_back(nid);
        edges += spec.children.size();
    }
    std::size_t listed = 0;
    for (eg::ClassId cls = 0; cls < m; ++cls) {
        EXPECT_TRUE(std::ranges::equal(g.nodesInClass(cls), members[cls]))
            << cls;
        listed += g.nodesInClass(cls).size();
    }
    EXPECT_EQ(listed, g.numNodes());
    EXPECT_EQ(g.stats().numEdges, edges);
    EXPECT_EQ(g.checkInvariants(), std::nullopt);

    // Every node's children span starts where the previous one ends: one
    // flat array in node order.
    for (eg::NodeId nid = 1; nid < g.numNodes(); ++nid)
        EXPECT_EQ(g.children(nid - 1).data() + g.children(nid - 1).size(),
                  g.children(nid).data());

    // A copy owns its own arrays.
    const eg::EGraph copy = g;
    EXPECT_NE(copy.children(5).data(), g.children(5).data());
    EXPECT_TRUE(std::ranges::equal(copy.children(5), g.children(5)));
    EXPECT_TRUE(std::ranges::equal(copy.nodesInClass(7),
                                   g.nodesInClass(7)));
}

TEST(EGraph, ParentIndex)
{
    eg::EGraph g = diamond();
    const auto& leafParents = g.parents(3);
    EXPECT_EQ(leafParents.size(), 2u);
    EXPECT_TRUE(g.parents(0).empty());
}

TEST(EGraph, ParentsDeduplicatedForRepeatedChild)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto leaf = g.addClass();
    g.addNode(root, "sq", {leaf, leaf}, 1.0); // x * x
    g.addNode(leaf, "x", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    EXPECT_EQ(g.parents(leaf).size(), 1u);
    EXPECT_EQ(g.stats().numEdges, 2u);
}

TEST(EGraph, FinalizeRejectsEmptyClass)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addClass(); // left empty
    g.addNode(root, "x", {}, 1.0);
    g.setRoot(root);
    const auto err = g.finalize();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("empty"), std::string::npos);
}

TEST(EGraph, FinalizeRejectsMissingRoot)
{
    eg::EGraph g;
    const auto cls = g.addClass();
    g.addNode(cls, "x", {}, 1.0);
    EXPECT_TRUE(g.finalize().has_value());
}

TEST(EGraph, FinalizeRejectsBadChildReference)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addNode(root, "f", {7}, 1.0);
    g.setRoot(root);
    EXPECT_TRUE(g.finalize().has_value());
}

TEST(EGraph, Stats)
{
    eg::EGraph g = diamond();
    const auto& stats = g.stats();
    EXPECT_EQ(stats.numNodes, 4u);
    EXPECT_EQ(stats.numClasses, 4u);
    EXPECT_EQ(stats.numEdges, 4u);
    EXPECT_DOUBLE_EQ(stats.avgDegree, 1.0);
    EXPECT_DOUBLE_EQ(stats.density, 4.0 / 16.0);
    EXPECT_EQ(stats.numLeaves, 1u);
    EXPECT_EQ(stats.maxClassSize, 1u);
}

TEST(EGraph, SccAcyclic)
{
    eg::EGraph g = diamond();
    const auto sccs = g.classSccs();
    EXPECT_EQ(sccs.size(), 4u);
    for (const auto& scc : sccs)
        EXPECT_EQ(scc.size(), 1u);
    EXPECT_TRUE(acyclic(g));
}

TEST(EGraph, SccDetectsCycle)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 1.0);
    g.addNode(a, "f", {b}, 1.0);
    g.addNode(a, "leafA", {}, 5.0);
    g.addNode(b, "g", {a}, 1.0); // cycle a <-> b
    g.addNode(b, "leafB", {}, 5.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    const auto sccs = g.classSccs();
    std::size_t big = 0;
    for (const auto& scc : sccs)
        big = std::max(big, scc.size());
    EXPECT_EQ(big, 2u);
    EXPECT_FALSE(acyclic(g));
}

TEST(EGraph, SelfLoopIsCyclic)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addNode(root, "id", {root}, 0.0);
    g.addNode(root, "x", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    EXPECT_FALSE(acyclic(g));
}

TEST(EGraph, SccReverseTopologicalOrder)
{
    eg::EGraph g = diamond();
    const auto sccs = g.classSccs();
    // Tarjan emits SCCs in reverse topological order: the leaf's component
    // must appear before the root's.
    std::size_t leafPos = 0;
    std::size_t rootPos = 0;
    for (std::size_t i = 0; i < sccs.size(); ++i) {
        if (sccs[i].front() == 3)
            leafPos = i;
        if (sccs[i].front() == 0)
            rootPos = i;
    }
    EXPECT_LT(leafPos, rootPos);
}

TEST(EGraph, ReachableClasses)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto orphan = g.addClass();
    g.addNode(root, "r", {a}, 1.0);
    g.addNode(a, "x", {}, 1.0);
    g.addNode(orphan, "y", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    const auto reachable = g.reachableClasses();
    EXPECT_EQ(reachable.size(), 2u);
    EXPECT_EQ(std::count(reachable.begin(), reachable.end(), orphan), 0);
}

TEST(EGraph, SccPartitionsAllClasses)
{
    // Property: SCC decomposition is a partition — every class appears in
    // exactly one component — on a larger random cyclic graph.
    // (Constructed inline to avoid a datasets dependency cycle.)
    eg::EGraph g;
    const std::size_t m = 60;
    for (std::size_t i = 0; i < m; ++i)
        g.addClass();
    // Chain with alternatives and a few back edges.
    for (eg::ClassId cls = 0; cls + 1 < m; ++cls) {
        g.addNode(cls, "f", {static_cast<eg::ClassId>(cls + 1)}, 1.0);
        if (cls % 7 == 3 && cls >= 5) {
            g.addNode(cls, "back",
                      {static_cast<eg::ClassId>(cls - 5)}, 1.0);
        }
    }
    g.addNode(m - 1, "leaf", {}, 1.0);
    g.setRoot(0);
    ASSERT_FALSE(g.finalize().has_value());

    const auto sccs = g.classSccs();
    std::vector<int> seen(m, 0);
    for (const auto& scc : sccs) {
        for (eg::ClassId cls : scc)
            ++seen[cls];
    }
    for (std::size_t i = 0; i < m; ++i)
        EXPECT_EQ(seen[i], 1) << "class " << i;
    EXPECT_FALSE(acyclic(g));
}

TEST(EGraph, ClassSccsMatchesPerClassReference)
{
    // The SCC order is what Prepared::sccs and the penalty sum follow,
    // so it must match the per-class-vector version exactly, not only
    // as a partition.
    eg::EGraph loopGraph;
    const auto root = loopGraph.addClass();
    const auto s = loopGraph.addClass();
    const auto t = loopGraph.addClass();
    loopGraph.addNode(root, "r", {s, t}, 1.0);
    loopGraph.addNode(s, "loop", {s}, 1.0);
    loopGraph.addNode(s, "to_t", {t, t}, 1.0);
    loopGraph.addNode(t, "back", {s}, 1.0);
    loopGraph.addNode(t, "leaf", {}, 1.0);
    loopGraph.setRoot(root);
    ASSERT_FALSE(loopGraph.finalize().has_value());
    EXPECT_EQ(loopGraph.classSccs(), referenceClassSccs(loopGraph));

    int cyclicGraphs = 0;
    for (const char* family :
         {"tensat", "rover", "flexc", "diospyros", "caviar"}) {
        for (const auto& named : smoothe::datasets::loadFamily(family, 0.05, 30)) {
            const auto sccs = named.graph.classSccs();
            EXPECT_EQ(sccs, referenceClassSccs(named.graph)) << named.name;
            if (sccs.size() < named.graph.numClasses())
                ++cyclicGraphs;
        }
    }
    EXPECT_GT(cyclicGraphs, 0);
}

TEST(Serialize, RoundTrip)
{
    eg::EGraph g = diamond();
    const std::string json = eg::toJson(g, /*pretty=*/true);
    std::string error;
    auto loaded = eg::fromJson(json, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->numNodes(), g.numNodes());
    EXPECT_EQ(loaded->numClasses(), g.numClasses());
    EXPECT_EQ(loaded->stats().numEdges, g.stats().numEdges);

    // Costs survive.
    double total = 0.0;
    for (eg::NodeId nid = 0; nid < loaded->numNodes(); ++nid)
        total += loaded->node(nid).cost;
    EXPECT_DOUBLE_EQ(total, 6.5);
}

namespace {

/** toJson as it was: every entry added through Json::set. */
std::string
keyedToJson(const eg::EGraph& graph, bool pretty)
{
    using smoothe::util::Json;
    Json nodes = Json::makeObject();
    std::vector<eg::NodeId> representative(graph.numClasses());
    for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls)
        representative[cls] = graph.nodesInClass(cls).front();
    for (eg::NodeId nid = 0; nid < graph.numNodes(); ++nid) {
        const eg::ENode node = graph.node(nid);
        Json entry = Json::makeObject();
        entry.set("op", node.op);
        Json children = Json::makeArray();
        for (eg::ClassId child : node.children)
            children.push(std::to_string(representative[child]));
        entry.set("children", std::move(children));
        entry.set("eclass", std::to_string(graph.classOf(nid)));
        entry.set("cost", node.cost);
        nodes.set(std::to_string(nid), std::move(entry));
    }
    Json roots = Json::makeArray();
    roots.push(std::to_string(graph.root()));
    Json doc = Json::makeObject();
    doc.set("nodes", std::move(nodes));
    doc.set("root_eclasses", std::move(roots));
    return pretty ? doc.dumpPretty() : doc.dump();
}

} // namespace

TEST(Serialize, ToJsonMatchesKeyedBuild)
{
    std::size_t graphs = 0;
    for (const std::string& family : smoothe::datasets::allFamilies()) {
        for (const auto& named :
             smoothe::datasets::loadFamily(family, 0.05, 13)) {
            for (const bool pretty : {false, true})
                EXPECT_EQ(eg::toJson(named.graph, pretty),
                          keyedToJson(named.graph, pretty))
                    << named.name << (pretty ? " pretty" : " compact");
            ++graphs;
        }
    }
    EXPECT_GT(graphs, 8u);
}

TEST(Serialize, FileRoundTrip)
{
    eg::EGraph g = diamond();
    const std::string path = "/tmp/smoothe_test_egraph.json";
    ASSERT_TRUE(eg::saveToFile(g, path));
    std::string error;
    auto loaded = eg::loadFromFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->numNodes(), 4u);
}

TEST(Serialize, RejectsGarbage)
{
    std::string error;
    EXPECT_FALSE(eg::fromJson("not json", &error).has_value());
    EXPECT_FALSE(eg::fromJson("{}", &error).has_value());
    EXPECT_FALSE(
        eg::fromJson(R"({"nodes": {}, "root_eclasses": []})", &error)
            .has_value());
    EXPECT_FALSE(
        eg::fromJson(
            R"({"nodes": {"0": {"op": "x", "children": ["99"],
                "eclass": "c0", "cost": 1}}, "root_eclasses": ["c0"]})",
            &error)
            .has_value());
}

TEST(Serialize, AcceptsNodeIdAsRootReference)
{
    // Some gym dumps put a node id (not a class id) in root_eclasses.
    const std::string text = R"({
        "nodes": {
            "n0": {"op": "x", "children": [], "eclass": "c0", "cost": 1.0}
        },
        "root_eclasses": ["n0"]
    })";
    std::string error;
    auto graph = eg::fromJson(text, &error);
    ASSERT_TRUE(graph.has_value()) << error;
    EXPECT_EQ(graph->numClasses(), 1u);
    EXPECT_EQ(graph->root(), 0u);
}

TEST(Serialize, DefaultsMissingOpAndCost)
{
    const std::string text = R"({
        "nodes": {
            "n0": {"children": [], "eclass": "c0"}
        },
        "root_eclasses": ["c0"]
    })";
    std::string error;
    auto graph = eg::fromJson(text, &error);
    ASSERT_TRUE(graph.has_value()) << error;
    EXPECT_EQ(graph->node(0).op, "?");
    EXPECT_DOUBLE_EQ(graph->node(0).cost, 1.0);
}

TEST(Serialize, AcceptsGymStyleDocument)
{
    const std::string text = R"({
        "nodes": {
            "n0": {"op": "+", "children": ["n1", "n2"], "eclass": "c0",
                   "cost": 1.0},
            "n1": {"op": "a", "children": [], "eclass": "c1", "cost": 2.0},
            "n2": {"op": "b", "children": [], "eclass": "c2", "cost": 3.0},
            "n3": {"op": "a2", "children": [], "eclass": "c1", "cost": 1.5}
        },
        "root_eclasses": ["c0"]
    })";
    std::string error;
    auto graph = eg::fromJson(text, &error);
    ASSERT_TRUE(graph.has_value()) << error;
    EXPECT_EQ(graph->numNodes(), 4u);
    EXPECT_EQ(graph->numClasses(), 3u);
    EXPECT_EQ(graph->nodesInClass(graph->root()).size(), 1u);
}
