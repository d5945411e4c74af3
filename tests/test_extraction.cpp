/**
 * @file
 * Tests for solutions/validation/costs, the bottom-up heuristics, random
 * sampling, and the genetic extractor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "datasets/generators.hpp"
#include "datasets/registry.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/genetic.hpp"
#include "extraction/random_sample.hpp"
#include "extraction/solution.hpp"
#include "extraction/validate.hpp"
#include "obs/trace.hpp"
#include "smoothe/sampler.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace core = smoothe::core;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;
namespace ds = smoothe::datasets;
namespace so = smoothe::obs;

namespace {

/** The paper's Figure 2 e-graph (optimal 19, heuristic 27). */
eg::EGraph
paperGraph()
{
    return ds::paperExampleEGraph();
}

/** Full certification: structure, status, and the reported-cost check. */
void
expectCertified(const eg::EGraph& g, const ex::ExtractionResult& result)
{
    const auto verdict = ex::validateResult(g, result);
    EXPECT_TRUE(verdict.ok()) << verdict.message;
}

/**
 * The verdict of validate() by the whole-graph method: the same
 * membership, root, completeness and reachability checks, then a colored
 * DFS over the chosen subgraph from the root.
 */
ex::Violation
referenceViolation(const eg::EGraph& g, const ex::Selection& sel)
{
    for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
        const eg::NodeId nid = sel.choice[cls];
        if (nid != eg::kNoNode &&
            (nid >= g.numNodes() || g.classOf(nid) != cls))
            return ex::Violation::DanglingNode;
    }
    if (!sel.chosen(g.root()))
        return ex::Violation::RootUnchosen;
    std::vector<bool> needed(g.numClasses(), false);
    std::vector<eg::ClassId> worklist{g.root()};
    needed[g.root()] = true;
    while (!worklist.empty()) {
        const eg::ClassId cls = worklist.back();
        worklist.pop_back();
        if (!sel.chosen(cls))
            return ex::Violation::MissingChild;
        for (eg::ClassId child : g.node(sel.choice[cls]).children) {
            if (!needed[child]) {
                needed[child] = true;
                worklist.push_back(child);
            }
        }
    }
    for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
        if (sel.chosen(cls) && !needed[cls])
            return ex::Violation::UnreachableChoice;
    }
    enum class Color { White, Gray, Black };
    std::vector<Color> color(g.numClasses(), Color::White);
    std::vector<std::pair<eg::ClassId, std::size_t>> stack{{g.root(), 0}};
    color[g.root()] = Color::Gray;
    while (!stack.empty()) {
        auto& [cls, next] = stack.back();
        const auto& children = g.node(sel.choice[cls]).children;
        if (next == children.size()) {
            color[cls] = Color::Black;
            stack.pop_back();
            continue;
        }
        const eg::ClassId child = children[next++];
        if (color[child] == Color::Gray)
            return ex::Violation::Cyclic;
        if (color[child] == Color::White) {
            color[child] = Color::Gray;
            stack.emplace_back(child, 0);
        }
    }
    return ex::Violation::None;
}

} // namespace

TEST(Validate, AcceptsPaperOptimal)
{
    const eg::EGraph g = paperGraph();
    // Build the optimal selection by op name.
    ex::Selection sel = ex::Selection::empty(g);
    auto pick = [&](eg::ClassId cls, const std::string& op) {
        for (eg::NodeId nid : g.nodesInClass(cls)) {
            if (g.node(nid).op == op) {
                sel.choice[cls] = nid;
                return;
            }
        }
        FAIL() << "no node " << op;
    };
    // Classes (in creation order): alpha, cos, sec, tan, tan2, one, sec2,
    // root.
    pick(0, "alpha");
    pick(3, "tan");
    pick(4, "square");
    pick(5, "one");
    pick(6, "add");
    pick(7, "add");
    const auto result = ex::validate(g, sel);
    EXPECT_TRUE(result.ok()) << result.message;
    EXPECT_DOUBLE_EQ(ex::dagCost(g, sel), 19.0);
    // Tree cost double-counts the shared tan subtree.
    EXPECT_DOUBLE_EQ(ex::treeCost(g, sel), 29.0);
}

TEST(Validate, RejectsMissingRoot)
{
    const eg::EGraph g = paperGraph();
    ex::Selection sel = ex::Selection::empty(g);
    const auto result = ex::validate(g, sel);
    EXPECT_EQ(result.violation, ex::Violation::RootUnchosen);
}

TEST(Validate, RejectsMissingChild)
{
    const eg::EGraph g = paperGraph();
    ex::Selection sel = ex::Selection::empty(g);
    sel.choice[g.root()] = g.nodesInClass(g.root()).front();
    const auto result = ex::validate(g, sel);
    EXPECT_EQ(result.violation, ex::Violation::MissingChild);
}

TEST(Validate, RejectsWrongClassMembership)
{
    const eg::EGraph g = paperGraph();
    ex::Selection sel = ex::Selection::empty(g);
    sel.choice[0] = g.nodesInClass(1).front(); // node from another class
    const auto result = ex::validate(g, sel);
    EXPECT_EQ(result.violation, ex::Violation::DanglingNode);
}

TEST(Validate, RejectsUnreachableChoice)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto unused = g.addClass();
    g.addNode(root, "x", {}, 1.0);
    g.addNode(unused, "y", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    ex::Selection sel = ex::Selection::empty(g);
    sel.choice[root] = 0;
    sel.choice[unused] = 1;
    EXPECT_EQ(ex::validate(g, sel).violation,
              ex::Violation::UnreachableChoice);
}

TEST(Validate, RejectsCycle)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    g.addNode(root, "r", {a}, 1.0);
    const auto fa = g.addNode(a, "f", {b}, 1.0);
    g.addNode(a, "leafA", {}, 1.0);
    const auto gb = g.addNode(b, "g", {a}, 1.0);
    g.addNode(b, "leafB", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());

    ex::Selection sel = ex::Selection::empty(g);
    sel.choice[root] = 0;
    sel.choice[a] = fa;
    sel.choice[b] = gb;
    EXPECT_EQ(ex::validate(g, sel).violation, ex::Violation::Cyclic);
    EXPECT_TRUE(std::isinf(ex::treeCost(g, sel)));
}

TEST(Validate, SccLocalCheckMatchesWholeGraphReference)
{
    // One graph with a self-loop class s next to the generated families.
    eg::EGraph loopGraph;
    const auto root = loopGraph.addClass();
    const auto s = loopGraph.addClass();
    loopGraph.addNode(root, "r", {s}, 1.0);
    loopGraph.addNode(s, "loop", {s}, 1.0);
    loopGraph.addNode(s, "leaf", {}, 1.0);
    loopGraph.setRoot(root);
    ASSERT_FALSE(loopGraph.finalize().has_value());
    std::vector<ds::NamedEGraph> graphs;
    graphs.push_back({"handmade", "self_loop", std::move(loopGraph)});
    for (const char* family :
         {"tensat", "rover", "flexc", "diospyros", "set", "caviar"}) {
        for (auto& named : ds::loadFamily(family, 0.05, 55))
            graphs.push_back(std::move(named));
    }

    smoothe::util::Rng rng(29);
    std::map<ex::Violation, int> verdicts;
    for (const auto& named : graphs) {
        const eg::EGraph& g = named.graph;
        const auto sccs = ex::CyclicSccs::of(g);
        core::GreedySampler sampler(g, sccs);
        const auto expectSameVerdict = [&](const ex::Selection& sel,
                                           const char* what) {
            const ex::Violation expected = referenceViolation(g, sel);
            EXPECT_EQ(ex::validate(g, sel, sccs).violation, expected)
                << named.name << " " << what;
            EXPECT_EQ(ex::validate(g, sel).violation, expected)
                << named.name << " " << what;
            ++verdicts[expected];
        };
        expectSameVerdict(ex::Selection::empty(g), "empty selection");
        std::vector<float> cp(g.numNodes());
        for (int row = 0; row < 20; ++row) {
            for (auto& v : cp)
                v = static_cast<float>(rng.uniform(0.0, 1.0));
            const ex::Selection raw = sampler.sample(cp.data(), false);
            const ex::Selection repaired = sampler.sample(cp.data(), true);
            expectSameVerdict(raw, "raw sample");
            expectSameVerdict(repaired, "repaired sample");
            if (!repaired.chosen(g.root()))
                continue;

            // The corruptions of a valid selection.
            const auto needed = ex::neededClasses(g, repaired);
            ASSERT_TRUE(needed.has_value());
            const eg::ClassId victim =
                (*needed)[rng.uniformIndex(needed->size())];
            ex::Selection dangling = repaired;
            dangling.choice[victim] =
                (repaired.choice[victim] + 1) % g.numNodes();
            if (g.classOf(dangling.choice[victim]) != victim)
                expectSameVerdict(dangling, "dangling member");
            for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
                if (!repaired.chosen(cls)) {
                    ex::Selection unreachable = repaired;
                    unreachable.choice[cls] = g.nodesInClass(cls).front();
                    expectSameVerdict(unreachable, "unreachable choice");
                    break;
                }
            }
            if (victim != g.root()) {
                ex::Selection missing = repaired;
                missing.choice[victim] = eg::kNoNode;
                expectSameVerdict(missing, "missing child");
            }
        }
    }
    // Every verdict kind the selections can produce was exercised.
    for (ex::Violation kind :
         {ex::Violation::None, ex::Violation::RootUnchosen,
          ex::Violation::MissingChild, ex::Violation::UnreachableChoice,
          ex::Violation::Cyclic, ex::Violation::DanglingNode})
        EXPECT_GT(verdicts[kind], 0) << static_cast<int>(kind);
}

namespace {

/**
 * validate() as it was before the flat e-graph indices: the same checks
 * in the same order, with a bit vector of needed classes, a full scan
 * for chosen classes that are not needed, and a colour array over every
 * class. The reference for the verdict and the message.
 */
ex::ValidationResult
referenceValidate(const eg::EGraph& graph, const ex::Selection& sel,
                  const ex::CyclicSccs& sccs)
{
    ex::ValidationResult result;
    auto fail = [&](ex::Violation v, const std::string& message) {
        result.violation = v;
        result.message = message;
        return result;
    };
    if (sel.choice.size() != graph.numClasses())
        return fail(ex::Violation::DanglingNode, "selection size mismatch");
    for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        const eg::NodeId nid = sel.choice[cls];
        if (nid == eg::kNoNode)
            continue;
        if (nid >= graph.numNodes() || graph.classOf(nid) != cls)
            return fail(ex::Violation::DanglingNode,
                        "choice for class " + std::to_string(cls) +
                            " is not a member of that class");
    }
    if (!sel.chosen(graph.root()))
        return fail(ex::Violation::RootUnchosen,
                    "root e-class has no choice");
    std::vector<bool> needed(graph.numClasses(), false);
    std::vector<eg::ClassId> worklist{graph.root()};
    needed[graph.root()] = true;
    while (!worklist.empty()) {
        const eg::ClassId cls = worklist.back();
        worklist.pop_back();
        const eg::NodeId nid = sel.choice[cls];
        if (nid == eg::kNoNode)
            return fail(ex::Violation::MissingChild,
                        "needed class " + std::to_string(cls) +
                            " has no chosen e-node");
        for (eg::ClassId child : graph.node(nid).children) {
            if (!needed[child]) {
                needed[child] = true;
                worklist.push_back(child);
            }
        }
    }
    for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls) {
        if (sel.chosen(cls) && !needed[cls])
            return fail(ex::Violation::UnreachableChoice,
                        "class " + std::to_string(cls) +
                            " is chosen but not needed by the extraction");
    }
    enum class Color : unsigned char { White, Gray, Black };
    std::vector<Color> color(graph.numClasses(), Color::White);
    struct Frame
    {
        eg::ClassId cls;
        std::size_t childIdx;
    };
    std::vector<Frame> stack;
    for (const auto& scc : sccs.classes) {
        const std::uint32_t id = sccs.id[scc.front()];
        for (eg::ClassId start : scc) {
            if (!sel.chosen(start) || color[start] != Color::White)
                continue;
            color[start] = Color::Gray;
            stack.push_back({start, 0});
            while (!stack.empty()) {
                Frame& frame = stack.back();
                const auto children =
                    graph.node(sel.choice[frame.cls]).children;
                if (frame.childIdx < children.size()) {
                    const eg::ClassId child = children[frame.childIdx++];
                    if (sccs.id[child] != id)
                        continue;
                    if (color[child] == Color::Gray)
                        return fail(ex::Violation::Cyclic,
                                    "cycle through class " +
                                        std::to_string(child));
                    if (color[child] == Color::White) {
                        color[child] = Color::Gray;
                        stack.push_back({child, 0});
                    }
                } else {
                    color[frame.cls] = Color::Black;
                    stack.pop_back();
                }
            }
        }
    }
    return result;
}

} // namespace

TEST(Validate, MatchesReferenceOnMutatedSelections)
{
    std::vector<ds::NamedEGraph> graphs;
    for (const char* family : {"tensat", "rover", "flexc", "diospyros",
                               "impress", "set", "caviar"}) {
        for (auto& named : ds::loadFamily(family, 0.05, 57))
            graphs.push_back(std::move(named));
    }

    smoothe::util::Rng rng(31);
    std::map<ex::Violation, int> verdicts;
    int cycleClosing = 0;
    for (const auto& named : graphs) {
        const eg::EGraph& g = named.graph;
        const auto sccs = ex::CyclicSccs::of(g);
        core::GreedySampler sampler(g, sccs);
        const auto expectSame = [&](const ex::Selection& sel,
                                    const char* what) {
            const ex::ValidationResult expected =
                referenceValidate(g, sel, sccs);
            if (std::string(what) == "cyclic-SCC re-choice" &&
                expected.violation == ex::Violation::Cyclic)
                ++cycleClosing;
            for (const ex::ValidationResult& got :
                 {ex::validate(g, sel, sccs), ex::validate(g, sel)}) {
                EXPECT_EQ(got.violation, expected.violation)
                    << named.name << " " << what;
                EXPECT_EQ(got.message, expected.message)
                    << named.name << " " << what;
            }
            ++verdicts[expected.violation];
        };
        std::vector<float> cp(g.numNodes());
        for (int row = 0; row < 12; ++row) {
            for (auto& v : cp)
                v = static_cast<float>(rng.uniform(0.0, 1.0));
            const ex::Selection raw = sampler.sample(cp.data(), false);
            expectSame(raw, "raw sample");
            const ex::Selection sel = sampler.sample(cp.data(), true);
            expectSame(sel, "repaired sample");
            if (!sel.chosen(g.root()))
                continue;
            const auto needed = ex::neededClasses(g, sel);
            ASSERT_TRUE(needed.has_value());

            // A wrong-class node in a needed class.
            const eg::ClassId victim =
                (*needed)[rng.uniformIndex(needed->size())];
            const eg::ClassId other = static_cast<eg::ClassId>(
                (victim + 1 + rng.uniformIndex(g.numClasses() - 1)) %
                g.numClasses());
            ex::Selection wrongClass = sel;
            wrongClass.choice[victim] = g.nodesInClass(other).front();
            expectSame(wrongClass, "wrong-class node");

            // A dropped child: a chosen node's child class unchosen.
            for (eg::ClassId cls : *needed) {
                const auto children = g.children(sel.choice[cls]);
                if (children.empty() || children.front() == g.root())
                    continue;
                ex::Selection dropped = sel;
                dropped.choice[children.front()] = eg::kNoNode;
                expectSame(dropped, "dropped child");
                break;
            }

            // An extra choice in a class the extraction does not need.
            for (eg::ClassId cls = 0; cls < g.numClasses(); ++cls) {
                if (!sel.chosen(cls)) {
                    ex::Selection extra = sel;
                    extra.choice[cls] = g.nodesInClass(cls).back();
                    expectSame(extra, "unreachable extra choice");
                    break;
                }
            }

            // Re-choices inside cyclic SCCs, which can close a cycle.
            int tried = 0;
            for (eg::ClassId cls : *needed) {
                if (sccs.id[cls] == ex::CyclicSccs::kNone || tried >= 8)
                    continue;
                for (eg::NodeId nid : g.nodesInClass(cls)) {
                    if (nid == sel.choice[cls])
                        continue;
                    ex::Selection rechosen = sel;
                    rechosen.choice[cls] = nid;
                    expectSame(rechosen, "cyclic-SCC re-choice");
                    ++tried;
                }
            }
        }
    }
    for (ex::Violation kind :
         {ex::Violation::None, ex::Violation::RootUnchosen,
          ex::Violation::MissingChild, ex::Violation::UnreachableChoice,
          ex::Violation::Cyclic, ex::Violation::DanglingNode})
        EXPECT_GT(verdicts[kind], 0) << static_cast<int>(kind);
    EXPECT_GT(cycleClosing, 0);
}

TEST(Costs, DagCostCountsSharedOnce)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto b = g.addClass();
    const auto shared = g.addClass();
    g.addNode(root, "+", {a, b}, 1.0);
    g.addNode(a, "f", {shared}, 2.0);
    g.addNode(b, "g", {shared}, 3.0);
    g.addNode(shared, "x", {}, 10.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    ex::Selection sel = ex::Selection::empty(g);
    for (eg::ClassId cls = 0; cls < 4; ++cls)
        sel.choice[cls] = g.nodesInClass(cls).front();
    EXPECT_DOUBLE_EQ(ex::dagCost(g, sel), 16.0);  // shared counted once
    EXPECT_DOUBLE_EQ(ex::treeCost(g, sel), 26.0); // counted twice
}

TEST(Costs, NeededClasses)
{
    const eg::EGraph g = paperGraph();
    smoothe::util::Rng rng(1);
    const auto sel = ex::sampleRandomSelection(g, rng);
    const auto needed = ex::neededClasses(g, sel);
    ASSERT_TRUE(needed.has_value());
    for (eg::ClassId cls : *needed)
        EXPECT_TRUE(sel.chosen(cls));
}

TEST(Costs, RootedSelectionUnchoosesRootOnMissingChoice)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    const auto shared = g.addClass();
    const auto unused = g.addClass();
    g.addNode(root, "+", {a, shared}, 1.0);
    g.addNode(a, "f", {shared}, 2.0);
    g.addNode(shared, "x", {}, 10.0);
    g.addNode(unused, "y", {}, 1.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    std::vector<eg::NodeId> choice(4);
    for (eg::ClassId cls = 0; cls < 4; ++cls)
        choice[cls] = g.nodesInClass(cls).front();

    // Complete choices: the walk keeps the needed classes only.
    const ex::Selection full = ex::rootedSelection(g, choice);
    EXPECT_TRUE(ex::validate(g, full).ok());
    EXPECT_TRUE(full.chosen(shared));
    EXPECT_FALSE(full.chosen(unused));

    // A needed class without a choice leaves the root unchosen.
    choice[shared] = eg::kNoNode;
    const ex::Selection missing = ex::rootedSelection(g, choice);
    EXPECT_FALSE(missing.chosen(root));
    EXPECT_EQ(ex::validate(g, missing).violation,
              ex::Violation::RootUnchosen);

    // So does a root without one, even when the rest is complete.
    choice[shared] = g.nodesInClass(shared).front();
    choice[root] = eg::kNoNode;
    EXPECT_FALSE(ex::rootedSelection(g, choice).chosen(root));
}

TEST(BottomUp, FindsHeuristicSolutionOnPaperGraph)
{
    const eg::EGraph g = paperGraph();
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    // The heuristic misses the shared tan reuse: cost 27 (Figure 2b).
    EXPECT_DOUBLE_EQ(result.cost, 27.0);
    expectCertified(g, result);
}

TEST(BottomUpPlus, ImprovesViaDagAwareness)
{
    const eg::EGraph g = paperGraph();
    ex::FasterBottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.cost, 27.0);
    expectCertified(g, result);
}

TEST(BottomUp, HandlesCyclicGraph)
{
    eg::EGraph g;
    const auto root = g.addClass();
    const auto a = g.addClass();
    g.addNode(root, "r", {a}, 1.0);
    g.addNode(a, "rec", {a}, 0.0);
    g.addNode(a, "base", {}, 5.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.cost, 6.0); // must use base, not the cycle
    expectCertified(g, result);
}

TEST(BottomUp, ReportsInfeasible)
{
    eg::EGraph g;
    const auto root = g.addClass();
    g.addNode(root, "self", {root}, 1.0); // only a self-cycle
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    EXPECT_EQ(result.status, ex::SolveStatus::Infeasible);
    expectCertified(g, result); // infeasible must not smuggle a solution
}

TEST(RandomSample, AlwaysValid)
{
    const auto params = ds::flexcParams();
    ds::FamilyParams small = params;
    small.numClasses = 120;
    const eg::EGraph g = ds::generateStructured(small, 77);
    smoothe::util::Rng rng(5);
    for (int i = 0; i < 25; ++i) {
        const auto sel = ex::sampleRandomSelection(g, rng);
        ASSERT_TRUE(sel.chosen(g.root()));
        const auto check = ex::validate(g, sel);
        EXPECT_TRUE(check.ok()) << check.message;
    }
}

TEST(RandomSample, ProducesDiverseSolutions)
{
    const eg::EGraph g = paperGraph();
    smoothe::util::Rng rng(9);
    const auto samples = ex::sampleRandomSelections(g, 40, rng);
    std::set<double> costs;
    for (const auto& sel : samples)
        costs.insert(ex::dagCost(g, sel));
    EXPECT_GE(costs.size(), 2u);
}

TEST(BottomUp, WithOwnCostsGivesHeuristicSelection)
{
    // bottomUpWithCosts is the heuristic's worklist under given weights:
    // with the graph's own node costs it must choose what `heuristic`
    // chooses, on acyclic and cyclic families alike.
    smoothe::util::Rng rng(11);
    for (const char* family : {"flexc", "impress", "rover", "tensat"}) {
        ds::FamilyParams params = ds::familyParams(family);
        params.numClasses = std::min<std::size_t>(params.numClasses, 200);
        for (int trial = 0; trial < 3; ++trial) {
            const eg::EGraph g = ds::generateStructured(params, rng.next());
            std::vector<double> costs(g.numNodes());
            for (eg::NodeId nid = 0; nid < g.numNodes(); ++nid)
                costs[nid] = g.node(nid).cost;
            ex::BottomUpExtractor heuristic;
            const auto result = heuristic.extract(g, {});
            ASSERT_TRUE(result.ok()) << family << " trial " << trial;
            EXPECT_EQ(ex::bottomUpWithCosts(g, costs).choice,
                      result.selection.choice)
                << family << " trial " << trial;
        }
    }
}

TEST(Genetic, SolvesPaperGraphOptimally)
{
    const eg::EGraph g = paperGraph();
    ex::GeneticExtractor extractor;
    ex::ExtractOptions options;
    options.seed = 3;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.cost, 19.0);
    expectCertified(g, result);
}

TEST(Genetic, SupportsCustomCost)
{
    const eg::EGraph g = paperGraph();
    // A cost that rewards selecting many nodes (contrived non-linear
    // objective): minimize -(#selected classes).
    ex::GeneticExtractor extractor;
    ex::ExtractOptions options;
    options.seed = 4;
    const auto result = extractor.extractWithCost(
        g,
        [](const eg::EGraph& graph, const ex::Selection& sel) {
            double chosen = 0.0;
            for (eg::ClassId cls = 0; cls < graph.numClasses(); ++cls)
                chosen += sel.chosen(cls) ? 1.0 : 0.0;
            return -chosen;
        },
        options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.cost, -6.0); // the deep solution uses >= 6 classes
}

TEST(Genetic, RecordsTrace)
{
    const eg::EGraph g = paperGraph();
    ex::GeneticExtractor extractor;
    ex::ExtractOptions options;
    options.seed = 5;
    const auto result = extractor.extract(g, options);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.trace.empty());
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_LE(result.trace[i].cost, result.trace[i - 1].cost);
}

class HeuristicOrderingTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(HeuristicOrderingTest, PlusNeverWorseThanPlain)
{
    // heuristic+ refines the plain fixed point DAG-aware; on every family
    // its DAG cost must be <= the plain heuristic's.
    const ds::FamilyParams params = ds::familyParams(GetParam());
    ds::FamilyParams scaled = params;
    scaled.numClasses = std::min<std::size_t>(params.numClasses, 250);
    smoothe::util::Rng rng(321);
    for (int trial = 0; trial < 3; ++trial) {
        const eg::EGraph g = ds::generateStructured(scaled, rng.next());
        ex::BottomUpExtractor plain;
        ex::FasterBottomUpExtractor plus;
        const auto plainResult = plain.extract(g, {});
        const auto plusResult = plus.extract(g, {});
        ASSERT_TRUE(plainResult.ok());
        ASSERT_TRUE(plusResult.ok());
        EXPECT_LE(plusResult.cost, plainResult.cost + 1e-9)
            << GetParam() << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HeuristicOrderingTest,
                         ::testing::Values("diospyros", "flexc", "impress",
                                           "rover", "tensat"));

TEST(BottomUp, HandlesRepeatedChildClass)
{
    // x * x: the same child class twice must be handled once in the
    // worklist and twice in tree cost.
    eg::EGraph g;
    const auto root = g.addClass();
    const auto leaf = g.addClass();
    g.addNode(root, "sq", {leaf, leaf}, 1.0);
    g.addNode(leaf, "x", {}, 3.0);
    g.setRoot(root);
    ASSERT_FALSE(g.finalize().has_value());
    ex::BottomUpExtractor extractor;
    const auto result = extractor.extract(g, {});
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result.cost, 4.0);                      // DAG
    EXPECT_DOUBLE_EQ(ex::treeCost(g, result.selection), 7.0); // tree
    expectCertified(g, result);
}

TEST(SolveStatus, Names)
{
    EXPECT_STREQ(ex::toString(ex::SolveStatus::Optimal), "optimal");
    EXPECT_STREQ(ex::toString(ex::SolveStatus::Feasible), "feasible");
    EXPECT_STREQ(ex::toString(ex::SolveStatus::Infeasible), "infeasible");
    EXPECT_STREQ(ex::toString(ex::SolveStatus::Failed), "failed");
}

TEST(ExtractorTrace, SpanNamesOutliveTheExtractors)
{
    // The per-run span is named after the extractor, and the trace is
    // only serialized at flush, after each extractor and the name string
    // it returned are gone.
    const eg::EGraph g = paperGraph();
    so::TraceSession& session = so::TraceSession::instance();
    session.start();
    {
        ex::BottomUpExtractor heuristic;
        EXPECT_TRUE(heuristic.extract(g, {}).ok());
    }
    {
        ex::GeneticExtractor genetic;
        EXPECT_TRUE(genetic.extract(g, {}).ok());
    }
    {
        ex::FasterBottomUpExtractor plus;
        EXPECT_TRUE(plus.extract(g, {}).ok());
    }
    session.stop();

    const auto doc =
        smoothe::util::Json::parse(session.toJson().dump());
    session.clear();
    ASSERT_TRUE(doc.has_value());
    std::vector<std::string> runSpans;
    for (const auto& event : doc->find("traceEvents")->asArray()) {
        const auto* cat = event.find("cat");
        const std::string name = event.find("name")->asString();
        if (cat && cat->asString() == "extraction" &&
            name.find('.') == std::string::npos)
            runSpans.push_back(name);
    }
    EXPECT_EQ(runSpans, (std::vector<std::string>{"heuristic", "genetic",
                                                  "heuristic+"}));
}
