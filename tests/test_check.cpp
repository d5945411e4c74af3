/**
 * @file
 * Tests for the contract layer (src/check) and the deep validators:
 * each validator must accept healthy structures AND provably reject
 * deliberately corrupted ones, reached through test-only friend peers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"
#include "check/contracts.hpp"
#include "datasets/generators.hpp"
#include "egraph/egraph.hpp"
#include "egraph/serialize.hpp"
#include "eqsat/mut_egraph.hpp"
#include "extraction/bottom_up.hpp"
#include "extraction/validate.hpp"
#include "obs/check_telemetry.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace check = smoothe::check;
namespace eg = smoothe::eg;
namespace ex = smoothe::extract;
namespace ad = smoothe::ad;
namespace ds = smoothe::datasets;

namespace smoothe::eg {

/** Backdoor used to corrupt EGraph state (friend of EGraph). */
struct EGraphTestPeer
{
    static void misfileNode(EGraph& g, NodeId nid, ClassId wrong)
    {
        g.nodeClass_[nid] = wrong;
    }
    static void poisonCost(EGraph& g, NodeId nid)
    {
        g.costs_[nid] = std::numeric_limits<double>::quiet_NaN();
    }
    static void dropFromClassList(EGraph& g, ClassId cls)
    {
        // Drop the class's last member from the flat member index.
        g.memberItems_.erase(g.memberItems_.begin() +
                             g.memberOffsets_[cls + 1] - 1);
        for (std::size_t j = cls + 1; j < g.memberOffsets_.size(); ++j)
            --g.memberOffsets_[j];
    }
    static void corruptRoot(EGraph& g) { g.root_ = 0xdeadbeef; }
    static void tamperParents(EGraph& g, ClassId cls)
    {
        g.classParents_[cls].push_back(0);
    }
};

} // namespace smoothe::eg

namespace smoothe::ad {

/** Backdoor used to corrupt Tape state (friend of Tape). */
struct TapeTestPeer
{
    static void selfReference(Tape& tape, VarId id)
    {
        tape.nodes_[static_cast<std::size_t>(id)].in0 = id;
    }
    static void poisonValue(Tape& tape, VarId id)
    {
        tape.evaluate();
        tape.nodes_[static_cast<std::size_t>(id)].value.at(0, 0) =
            std::numeric_limits<float>::quiet_NaN();
    }
    static void corruptShape(Tape& tape, VarId id)
    {
        tape.nodes_[static_cast<std::size_t>(id)].rows = 1;
        tape.nodes_[static_cast<std::size_t>(id)].cols = 17;
    }
    static tensor::ElemStage& stage(Tape& tape, VarId id)
    {
        return tape.nodes_[static_cast<std::size_t>(id)].stage;
    }
};

} // namespace smoothe::ad

namespace smoothe::eqsat {

/** Backdoor used to corrupt MutEGraph state (friend of MutEGraph). */
struct MutEGraphTestPeer
{
    static void dropHashconsEntry(MutEGraph& g)
    {
        g.hashcons_.erase(g.hashcons_.begin());
    }
    static void corruptParentPointer(MutEGraph& g)
    {
        g.parent_[0] = static_cast<Id>(g.parent_.size() + 100);
    }
    static void emptyCanonicalClass(MutEGraph& g)
    {
        for (Id id = 0; id < g.parent_.size(); ++id) {
            if (g.find(id) == id && !g.classes_[id].nodes.empty()) {
                g.classes_[id].nodes.clear();
                return;
            }
        }
    }
};

} // namespace smoothe::eqsat

namespace {

using check::ContractViolation;
using check::FailureMode;
using check::ScopedFailureMode;

// ---------------------------------------------------------------- macros

TEST(Contracts, PassingChecksAreSilent)
{
    ScopedFailureMode mode(FailureMode::Throw);
    EXPECT_NO_THROW(SMOOTHE_CHECK(1 + 1 == 2));
    EXPECT_NO_THROW(SMOOTHE_ASSERT(true, "never shown %d", 7));
    EXPECT_NO_THROW(SMOOTHE_CHECK_OK(std::optional<std::string>()));
}

TEST(Contracts, FailedCheckThrowsWithFormattedMessage)
{
    ScopedFailureMode mode(FailureMode::Throw);
    try {
        SMOOTHE_CHECK(false, "value was %d", 42);
        FAIL() << "SMOOTHE_CHECK(false) did not throw";
    } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what()).find("value was 42"),
                  std::string::npos)
            << violation.what();
        EXPECT_EQ(violation.expression(), "false");
        EXPECT_EQ(violation.line() > 0, true);
    }
}

TEST(Contracts, FailedAssertThrows)
{
    ScopedFailureMode mode(FailureMode::Throw);
    EXPECT_THROW(SMOOTHE_ASSERT(false), ContractViolation);
}

TEST(Contracts, ValidatorAdapterCarriesTheMessage)
{
    ScopedFailureMode mode(FailureMode::Throw);
    std::optional<std::string> problem("index 3 out of range");
    try {
        SMOOTHE_CHECK_OK(problem);
        FAIL() << "SMOOTHE_CHECK_OK did not throw";
    } catch (const ContractViolation& violation) {
        EXPECT_NE(
            std::string(violation.what()).find("index 3 out of range"),
            std::string::npos);
    }
}

TEST(Contracts, LogModeContinuesPastFailedCheck)
{
    ScopedFailureMode mode(FailureMode::Log);
    bool reached = false;
    SMOOTHE_CHECK(false, "recoverable");
    reached = true;
    EXPECT_TRUE(reached);
}

TEST(Contracts, TelemetryObserverCountsFailures)
{
    smoothe::obs::installCheckTelemetry();
    ScopedFailureMode mode(FailureMode::Log);
    const auto before = smoothe::obs::counter("check.failures").get();
    const auto beforeTier =
        smoothe::obs::counter("check.failures.check").get();
    testing::internal::CaptureStderr();
    SMOOTHE_CHECK(false, "counted");
    const std::string printed = testing::internal::GetCapturedStderr();
    EXPECT_EQ(smoothe::obs::counter("check.failures").get(), before + 1);
    EXPECT_EQ(smoothe::obs::counter("check.failures.check").get(),
              beforeTier + 1);
    // dispatch prints the line itself; the observer only counts.
    const std::string marker = "CHECK failed at";
    const std::size_t first = printed.find(marker);
    ASSERT_NE(first, std::string::npos) << printed;
    EXPECT_EQ(printed.find(marker, first + 1), std::string::npos) << printed;
}

#if SMOOTHE_INVARIANTS_ENABLED
TEST(Contracts, DcheckActiveInInvariantBuilds)
{
    ScopedFailureMode mode(FailureMode::Throw);
    EXPECT_THROW(SMOOTHE_DCHECK(false), ContractViolation);
    EXPECT_THROW(SMOOTHE_DCHECK_OK(std::optional<std::string>("bad")),
                 ContractViolation);
}
#else
TEST(Contracts, DcheckCompiledOutInReleaseBuilds)
{
    // The condition must not even be evaluated.
    bool evaluated = false;
    SMOOTHE_DCHECK([&] {
        evaluated = true;
        return false;
    }());
    EXPECT_FALSE(evaluated);
}
#endif

// ------------------------------------------------- EGraph::checkInvariants

TEST(EGraphInvariants, HealthyGraphPasses)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    EXPECT_EQ(g.checkInvariants(), std::nullopt);
}

TEST(EGraphInvariants, DetectsMisfiledNode)
{
    eg::EGraph g = ds::paperExampleEGraph();
    const auto wrong = static_cast<eg::ClassId>(
        (g.classOf(0) + 1) % g.numClasses());
    eg::EGraphTestPeer::misfileNode(g, 0, wrong);
    EXPECT_NE(g.checkInvariants(), std::nullopt);
}

TEST(EGraphInvariants, DetectsNonFiniteCost)
{
    eg::EGraph g = ds::paperExampleEGraph();
    eg::EGraphTestPeer::poisonCost(g, 2);
    const auto problem = g.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("finite"), std::string::npos) << *problem;
}

TEST(EGraphInvariants, DetectsMembershipHole)
{
    eg::EGraph g = ds::paperExampleEGraph();
    eg::EGraphTestPeer::dropFromClassList(g, g.root());
    EXPECT_NE(g.checkInvariants(), std::nullopt);
}

TEST(EGraphInvariants, DetectsOutOfRangeRoot)
{
    eg::EGraph g = ds::paperExampleEGraph();
    eg::EGraphTestPeer::corruptRoot(g);
    const auto problem = g.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("root"), std::string::npos) << *problem;
}

TEST(EGraphInvariants, DetectsStaleParentIndex)
{
    eg::EGraph g = ds::paperExampleEGraph();
    eg::EGraphTestPeer::tamperParents(g, g.root());
    EXPECT_NE(g.checkInvariants(), std::nullopt);
}

// --------------------------------------------------- Tape::checkInvariants

TEST(TapeInvariants, HealthyTapePasses)
{
    ad::Tape tape;
    ad::Param weights(ad::Tensor(2, 3, 0.5f));
    const ad::VarId a = tape.leaf(&weights);
    const ad::VarId b = tape.scale(a, 2.0f);
    const ad::VarId loss = tape.sumAll(tape.mul(a, b));
    EXPECT_EQ(tape.checkInvariants(), std::nullopt);
    EXPECT_EQ(tape.checkInvariants(/*screen_values=*/true), std::nullopt);
    tape.backward(loss);
}

TEST(TapeInvariants, DetectsTopologicalViolation)
{
    ad::Tape tape;
    ad::Param weights(ad::Tensor(1, 2, 1.0f));
    const ad::VarId a = tape.leaf(&weights);
    const ad::VarId b = tape.scale(a, 2.0f);
    ad::TapeTestPeer::selfReference(tape, b);
    const auto problem = tape.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("precede"), std::string::npos) << *problem;
}

TEST(TapeInvariants, ScreensNaNForwardValues)
{
    ad::Tape tape;
    ad::Param weights(ad::Tensor(1, 2, 1.0f));
    const ad::VarId a = tape.leaf(&weights);
    ad::TapeTestPeer::poisonValue(tape, a);
    EXPECT_EQ(tape.checkInvariants(/*screen_values=*/false), std::nullopt);
    const auto problem = tape.checkInvariants(/*screen_values=*/true);
    ASSERT_NE(problem, std::nullopt);
}

TEST(TapeInvariants, DetectsShapeMismatch)
{
    ad::Tape tape;
    ad::Param weights(ad::Tensor(2, 2, 1.0f));
    const ad::VarId a = tape.leaf(&weights);
    const ad::VarId b = tape.relu(a);
    ad::TapeTestPeer::corruptShape(tape, b);
    EXPECT_NE(tape.checkInvariants(), std::nullopt);
}

TEST(TapeInvariants, DetectsMalformedChainStages)
{
    ad::Tape tape;
    ad::Param weights(ad::Tensor(2, 3, 1.0f));
    const ad::VarId a = tape.leaf(&weights);
    const ad::VarId masked = tape.mulConst(a, ad::Tensor(1, 3, 2.0f));
    const ad::VarId scaled = tape.scale(masked, 0.5f);
    ASSERT_EQ(tape.checkInvariants(), std::nullopt);

    // A stage constant that neither matches nor broadcasts over the node.
    smoothe::tensor::ElemStage& maskStage =
        ad::TapeTestPeer::stage(tape, masked);
    ad::Tensor good = std::move(maskStage.c);
    maskStage.c = ad::Tensor(2, 2, 2.0f);
    auto problem = tape.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("chain stage constant 2x2"), std::string::npos)
        << *problem;
    maskStage.c = std::move(good);

    // A scalar stage that carries a tensor.
    ad::TapeTestPeer::stage(tape, scaled).c = ad::Tensor(1, 3, 1.0f);
    problem = tape.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("holds a tensor"), std::string::npos)
        << *problem;
}

// ----------------------------------------------- MutEGraph::checkInvariants

namespace eqs = smoothe::eqsat;

eqs::MutEGraph
smallSaturatedGraph()
{
    eqs::MutEGraph g;
    const eqs::Id x = g.add("x", {});
    const eqs::Id y = g.add("y", {});
    const eqs::Id sum = g.add("+", {x, y});
    g.add("*", {sum, x});
    g.rebuild();
    return g;
}

TEST(MutEGraphInvariants, HealthyGraphPasses)
{
    eqs::MutEGraph g = smallSaturatedGraph();
    EXPECT_EQ(g.checkInvariants(), std::nullopt);
}

TEST(MutEGraphInvariants, DetectsMissingHashconsEntry)
{
    eqs::MutEGraph g = smallSaturatedGraph();
    eqs::MutEGraphTestPeer::dropHashconsEntry(g);
    EXPECT_NE(g.checkInvariants(), std::nullopt);
}

TEST(MutEGraphInvariants, DetectsDanglingUnionFindPointer)
{
    eqs::MutEGraph g = smallSaturatedGraph();
    eqs::MutEGraphTestPeer::corruptParentPointer(g);
    const auto problem = g.checkInvariants();
    ASSERT_NE(problem, std::nullopt);
    EXPECT_NE(problem->find("out of range"), std::string::npos) << *problem;
}

TEST(MutEGraphInvariants, DetectsEmptiedClass)
{
    eqs::MutEGraph g = smallSaturatedGraph();
    eqs::MutEGraphTestPeer::emptyCanonicalClass(g);
    EXPECT_NE(g.checkInvariants(), std::nullopt);
}

// --------------------------------------------------------- validateResult

/** Runs heuristic extraction and returns the (valid) result. */
ex::ExtractionResult
validResult(const eg::EGraph& g)
{
    ex::BottomUpExtractor heuristic;
    ex::ExtractionResult result = heuristic.extract(g, {});
    EXPECT_TRUE(result.ok());
    return result;
}

TEST(ValidateResult, AcceptsValidExtraction)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    const auto result = validResult(g);
    const auto verdict = ex::validateResult(g, result);
    EXPECT_TRUE(verdict.ok()) << verdict.message;
}

TEST(ValidateResult, RejectsCompletenessHole)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    auto result = validResult(g);
    // Un-choose a needed child class: the root's chosen node must have at
    // least one child in this graph.
    const eg::NodeId rootChoice = result.selection.choice[g.root()];
    ASSERT_FALSE(g.node(rootChoice).children.empty());
    result.selection.choice[g.node(rootChoice).children.front()] =
        eg::kNoNode;
    const auto verdict = ex::validateResult(g, result);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.violation, ex::Violation::MissingChild);
}

TEST(ValidateResult, RejectsCycle)
{
    // root class 0 { r(1) }, class 1 { a(0) cyclic, b leaf }.
    eg::EGraph g;
    const eg::ClassId rootCls = g.addClass();
    const eg::ClassId childCls = g.addClass();
    g.addNode(rootCls, "r", {childCls}, 1.0);
    const eg::NodeId cyclicNode = g.addNode(childCls, "a", {rootCls}, 1.0);
    g.addNode(childCls, "b", {}, 1.0);
    g.setRoot(rootCls);
    ASSERT_EQ(g.finalize(), std::nullopt);

    ex::ExtractionResult result;
    result.selection = ex::Selection::empty(g);
    result.selection.choice[rootCls] = 0;
    result.selection.choice[childCls] = cyclicNode;
    result.status = ex::SolveStatus::Feasible;
    result.cost = 2.0;
    const auto verdict = ex::validateResult(g, result);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.violation, ex::Violation::Cyclic);
}

TEST(ValidateResult, RejectsCostMismatch)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    auto result = validResult(g);
    result.cost += 1.0;
    const auto verdict = ex::validateResult(g, result);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.violation, ex::Violation::CostMismatch);
}

TEST(ValidateResult, RejectsLyingFailureStatus)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    auto result = validResult(g);
    result.status = ex::SolveStatus::Failed;
    const auto verdict = ex::validateResult(g, result);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.violation, ex::Violation::StatusMismatch);
}

TEST(ValidateResult, AcceptsInfeasibleWithoutSolution)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    ex::ExtractionResult result;
    result.status = ex::SolveStatus::Infeasible;
    result.cost = std::numeric_limits<double>::infinity();
    const auto verdict = ex::validateResult(g, result);
    EXPECT_TRUE(verdict.ok()) << verdict.message;
}

// ------------------------------------------------------ serializer errors

TEST(SerializeHardening, RejectsDanglingChild)
{
    const std::string text = R"({
        "nodes": {
            "n0": {"op": "f", "children": ["missing"], "eclass": "c0"}
        },
        "root_eclasses": ["c0"]
    })";
    std::string error;
    EXPECT_EQ(eg::fromJson(text, &error), std::nullopt);
    EXPECT_NE(error.find("missing"), std::string::npos) << error;
}

TEST(SerializeHardening, RejectsEmptyGraph)
{
    std::string error;
    EXPECT_EQ(eg::fromJson(R"({"nodes": {}, "root_eclasses": ["c"]})",
                           &error),
              std::nullopt);
    EXPECT_NE(error.find("no nodes"), std::string::npos) << error;
}

TEST(SerializeHardening, RejectsNonNumericCost)
{
    const std::string text = R"({
        "nodes": {
            "n0": {"op": "x", "children": [], "eclass": "c0",
                   "cost": "cheap"}
        },
        "root_eclasses": ["c0"]
    })";
    std::string error;
    EXPECT_EQ(eg::fromJson(text, &error), std::nullopt);
    EXPECT_NE(error.find("cost"), std::string::npos) << error;
}

TEST(SerializeHardening, RejectsCostBeyondFloatRange)
{
    auto withCost = [](const std::string& cost) {
        return R"({
            "nodes": {
                "big": {"op": "x", "children": [], "eclass": "c0",
                        "cost": )" +
               cost + R"(}
            },
            "root_eclasses": ["c0"]
        })";
    };
    std::string error;
    EXPECT_EQ(eg::fromJson(withCost("1e39"), &error), std::nullopt);
    EXPECT_NE(error.find("\"big\""), std::string::npos) << error;
    EXPECT_NE(error.find("float range"), std::string::npos) << error;
    EXPECT_EQ(eg::fromJson(withCost("-1e39"), &error), std::nullopt);

    error.clear();
    const auto loaded = eg::fromJson(withCost("1e30"), &error);
    ASSERT_NE(loaded, std::nullopt) << error;
    EXPECT_EQ(loaded->numNodes(), 1u);
}

TEST(SerializeHardening, RejectsUnknownRoot)
{
    const std::string text = R"({
        "nodes": {
            "n0": {"op": "x", "children": [], "eclass": "c0"}
        },
        "root_eclasses": ["c999"]
    })";
    std::string error;
    EXPECT_EQ(eg::fromJson(text, &error), std::nullopt);
    EXPECT_NE(error.find("c999"), std::string::npos) << error;
}

/**
 * One seeded structural mutation of a valid extraction-gym document:
 * the kinds the ingest must survive. Returns the mutated text.
 */
enum class Mutation
{
    DanglingChild,
    EmptyClass,
    LeaflessCycle,
    DuplicateNodeId,
    HugeCost,
    HugeNegativeCost,
    ZeroCost,
    StringCost,
};

std::string
mutateDocument(const eg::EGraph& base, Mutation kind, std::uint64_t seed)
{
    using smoothe::util::Json;
    smoothe::util::Rng rng(seed);
    Json doc = *Json::parse(eg::toJson(base));
    Json::Object& nodes = doc.asObject().front().second.asObject();
    Json& victim = nodes[rng.uniformIndex(nodes.size())].second;
    const auto randomKey = [&]() {
        return nodes[rng.uniformIndex(nodes.size())].first;
    };
    switch (kind) {
      case Mutation::DanglingChild: {
        Json children = *victim.find("children");
        children.push("no_such_node_" + std::to_string(seed));
        victim.set("children", std::move(children));
        break;
      }
      case Mutation::EmptyClass: {
        const std::string cls = victim.find("eclass")->asString();
        Json::Object kept;
        for (auto& entry : nodes)
            if (entry.second.find("eclass")->asString() != cls)
                kept.push_back(std::move(entry));
        nodes = std::move(kept);
        break;
      }
      case Mutation::LeaflessCycle:
        // Every leaf gains a child, so no node is a leaf and every
        // path eventually cycles.
        for (auto& entry : nodes) {
            if (entry.second.find("children")->asArray().empty()) {
                Json children = Json::makeArray();
                children.push(randomKey());
                entry.second.set("children", std::move(children));
            }
        }
        break;
      case Mutation::DuplicateNodeId: {
        Json copy = victim;
        copy.set("eclass", nodes[rng.uniformIndex(nodes.size())]
                               .second.find("eclass")
                               ->asString());
        nodes.emplace_back(randomKey(), std::move(copy));
        break;
      }
      case Mutation::HugeCost:
        victim.set("cost", 1e39);
        break;
      case Mutation::HugeNegativeCost:
        victim.set("cost", -1e39);
        break;
      case Mutation::ZeroCost:
        victim.set("cost", 0.0);
        break;
      case Mutation::StringCost:
        victim.set("cost", "12");
        break;
    }
    return doc.dump();
}

TEST(SerializeHardening, StructuralFuzzNeverCrashes)
{
    ds::FamilyParams rover = ds::roverParams();
    rover.numClasses = 40;
    rover.cycleFraction = 0.1;
    const std::vector<eg::EGraph> bases = {
        ds::paperExampleEGraph(), ds::generateStructured(rover, 3)};
    const Mutation kinds[] = {
        Mutation::DanglingChild,   Mutation::EmptyClass,
        Mutation::LeaflessCycle,   Mutation::DuplicateNodeId,
        Mutation::HugeCost,        Mutation::HugeNegativeCost,
        Mutation::ZeroCost,        Mutation::StringCost,
    };
    for (const eg::EGraph& base : bases) {
        for (const Mutation kind : kinds) {
            for (std::uint64_t seed = 1; seed <= 12; ++seed) {
                SCOPED_TRACE("mutation " +
                             std::to_string(static_cast<int>(kind)) +
                             " seed " + std::to_string(seed));
                const std::string text = mutateDocument(base, kind, seed);
                std::string error;
                std::optional<eg::EGraph> loaded;
                try {
                    loaded = eg::fromJson(text, &error);
                } catch (const std::exception& e) {
                    error = e.what();
                }
                if (loaded) {
                    EXPECT_EQ(loaded->checkInvariants(), std::nullopt);
                } else {
                    EXPECT_FALSE(error.empty());
                }
                // Kinds that are never a valid document.
                if (kind == Mutation::DanglingChild ||
                    kind == Mutation::DuplicateNodeId ||
                    kind == Mutation::HugeCost ||
                    kind == Mutation::HugeNegativeCost ||
                    kind == Mutation::StringCost) {
                    EXPECT_FALSE(loaded.has_value());
                }
                if (kind == Mutation::ZeroCost) {
                    EXPECT_TRUE(loaded.has_value()) << error;
                }
            }
        }
    }
}

TEST(SerializeHardening, RoundTripsHealthyGraph)
{
    const eg::EGraph g = ds::paperExampleEGraph();
    std::string error;
    const auto loaded = eg::fromJson(eg::toJson(g, /*pretty=*/false),
                                     &error);
    ASSERT_NE(loaded, std::nullopt) << error;
    EXPECT_EQ(loaded->numNodes(), g.numNodes());
    EXPECT_EQ(loaded->numClasses(), g.numClasses());
    EXPECT_EQ(loaded->checkInvariants(), std::nullopt);
}

} // namespace
