#include "eqsat/mut_egraph.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "check/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace smoothe::eqsat {

std::uint32_t
MutEGraph::internSymbol(const std::string& name)
{
    const auto it = symbolIds_.find(name);
    if (it != symbolIds_.end())
        return it->second;
    const std::uint32_t id = static_cast<std::uint32_t>(symbols_.size());
    symbols_.push_back(name);
    symbolIds_[name] = id;
    if (deltaLog_)
        pendingDelta_.symbolsAdded.push_back(name);
    return id;
}

const std::string&
MutEGraph::symbolName(std::uint32_t id) const
{
    return symbols_[id];
}

Id
MutEGraph::find(Id id) const
{
    // Path halving.
    while (parent_[id] != id) {
        parent_[id] = parent_[parent_[id]];
        id = parent_[id];
    }
    return id;
}

Id
MutEGraph::findMutable(Id id)
{
    return find(id);
}

Node
MutEGraph::canonicalize(const Node& node) const
{
    Node out;
    out.op = node.op;
    out.children.reserve(node.children.size());
    for (Id child : node.children)
        out.children.push_back(find(child));
    return out;
}

Id
MutEGraph::add(const std::string& op, std::vector<Id> children)
{
    Node node;
    node.op = internSymbol(op);
    node.children = std::move(children);
    for (Id& child : node.children)
        child = find(child);

    const auto it = hashcons_.find(node);
    if (it != hashcons_.end())
        return find(it->second);

    const Id id = static_cast<Id>(parent_.size());
    parent_.push_back(id);
    classes_.emplace_back();
    classes_[id].nodes.push_back(node);
    hashcons_[node] = id;
    for (Id child : node.children)
        classes_[child].parents.emplace_back(node, id);
    if (deltaLog_) {
        DeltaEntry entry;
        entry.kind = DeltaEntry::Kind::AddNode;
        entry.op = node.op;
        entry.children = node.children;
        entry.cls = id;
        pendingDelta_.entries.push_back(std::move(entry));
    }
    return id;
}

Id
MutEGraph::addTerm(const Term& term)
{
    std::vector<Id> children;
    children.reserve(term.children.size());
    for (const auto& child : term.children)
        children.push_back(addTerm(*child));
    return add(term.op, std::move(children));
}

Id
MutEGraph::merge(Id a, Id b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return a;
    static obs::Counter& merges = obs::counter("eqsat.merges");
    merges.add(1);
    // Union by parent-list size so congruence repair touches fewer uses.
    if (classes_[a].parents.size() < classes_[b].parents.size())
        std::swap(a, b);
    parent_[b] = a;
    if (deltaLog_) {
        DeltaEntry entry;
        entry.kind = DeltaEntry::Kind::Merge;
        entry.from = b;
        entry.into = a;
        pendingDelta_.entries.push_back(std::move(entry));
    }
    // Move nodes and parents into the survivor.
    auto& survivor = classes_[a];
    auto& absorbed = classes_[b];
    survivor.nodes.insert(survivor.nodes.end(), absorbed.nodes.begin(),
                          absorbed.nodes.end());
    survivor.parents.insert(survivor.parents.end(), absorbed.parents.begin(),
                            absorbed.parents.end());
    absorbed.nodes.clear();
    absorbed.nodes.shrink_to_fit();
    absorbed.parents.clear();
    absorbed.parents.shrink_to_fit();
    worklist_.push_back(a);
    return a;
}

void
MutEGraph::rebuild()
{
    obs::Span span("rebuild", "eqsat");
    static obs::Counter& rebuildMerges =
        obs::counter("eqsat.rebuild_merges");
    const std::uint64_t mergesBefore = obs::counter("eqsat.merges").get();
    while (!worklist_.empty()) {
        std::vector<Id> todo;
        todo.swap(worklist_);
        std::set<Id> deduped;
        for (Id id : todo)
            deduped.insert(find(id));
        for (Id cls : deduped) {
            // Repair the uses of this class: re-canonicalize each parent
            // node; congruent duplicates trigger upward merges.
            auto parents = classes_[cls].parents;
            classes_[cls].parents.clear();
            std::unordered_map<Node, Id, NodeHash> seen;
            for (auto& [node, useClass] : parents) {
                const Node canon = canonicalize(node);
                // Update the hashcons entry for the canonical form.
                const auto old = hashcons_.find(node);
                if (old != hashcons_.end() && !(node == canon)) {
                    const Id target = old->second;
                    hashcons_.erase(old);
                    // Keep the canonical entry pointing at the merged class.
                    const auto existing = hashcons_.find(canon);
                    if (existing == hashcons_.end())
                        hashcons_[canon] = target;
                }
                const Id canonUse = find(useClass);
                const auto it = seen.find(canon);
                if (it != seen.end()) {
                    merge(it->second, canonUse);
                } else {
                    seen[canon] = canonUse;
                    classes_[find(cls)].parents.emplace_back(canon,
                                                             canonUse);
                }
                // Also merge with any other class holding the same node.
                const auto hc = hashcons_.find(canon);
                if (hc != hashcons_.end() && find(hc->second) != find(canonUse))
                    merge(hc->second, canonUse);
                else if (hc == hashcons_.end())
                    hashcons_[canon] = canonUse;
            }
            // Deduplicate the class's own node list.
            auto& nodes = classes_[find(cls)].nodes;
            std::unordered_map<Node, bool, NodeHash> nodeSeen;
            std::vector<Node> unique;
            unique.reserve(nodes.size());
            for (const Node& node : nodes) {
                const Node canon = canonicalize(node);
                if (!nodeSeen.count(canon)) {
                    nodeSeen[canon] = true;
                    unique.push_back(canon);
                }
            }
            nodes = std::move(unique);
        }
    }
    rebuildMerges.add(obs::counter("eqsat.merges").get() - mergesBefore);
}

std::optional<std::string>
MutEGraph::checkInvariants() const
{
    const auto problem = [](auto&&... parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        return std::optional<std::string>(oss.str());
    };

    if (parent_.size() != classes_.size())
        return problem("union-find has ", parent_.size(),
                       " ids but class table has ", classes_.size());
    for (Id id = 0; id < parent_.size(); ++id) {
        if (parent_[id] >= parent_.size())
            return problem("parent_[", id, "] = ", parent_[id],
                           " is out of range (", parent_.size(), " ids)");
    }
    for (Id id = 0; id < parent_.size(); ++id) {
        if (find(id) != id &&
            (!classes_[id].nodes.empty() || !classes_[id].parents.empty()))
            return problem("absorbed e-class ", id,
                           " still holds nodes or parent uses");
    }
    for (const auto& [node, cls] : hashcons_) {
        if (node.op >= symbols_.size())
            return problem("hashcons node has unknown symbol id ", node.op);
        for (Id child : node.children) {
            if (child >= parent_.size())
                return problem("hashcons node child ", child,
                               " is out of range (", parent_.size(), " ids)");
        }
        if (cls >= parent_.size())
            return problem("hashcons maps a node to out-of-range class ",
                           cls);
    }

    // Validate the pending delta log against the materialized graph.
    if (deltaLog_) {
        if (pendingDelta_.baseNodes + pendingDelta_.numAdds() !=
            parent_.size())
            return problem("delta log records ", pendingDelta_.numAdds(),
                           " adds on a base of ", pendingDelta_.baseNodes,
                           " ids but the graph holds ", parent_.size());
        if (pendingDelta_.baseSymbols + pendingDelta_.symbolsAdded.size() !=
            symbols_.size())
            return problem("delta log records ",
                           pendingDelta_.symbolsAdded.size(),
                           " symbols on a base of ",
                           pendingDelta_.baseSymbols,
                           " but the symbol table holds ", symbols_.size());
        for (std::size_t i = 0; i < pendingDelta_.symbolsAdded.size(); ++i) {
            if (symbols_[pendingDelta_.baseSymbols + i] !=
                pendingDelta_.symbolsAdded[i])
                return problem("delta log symbol ", i, " is \"",
                               pendingDelta_.symbolsAdded[i],
                               "\" but the symbol table holds \"",
                               symbols_[pendingDelta_.baseSymbols + i],
                               "\"");
        }
        Id nextId = static_cast<Id>(pendingDelta_.baseNodes);
        for (const DeltaEntry& entry : pendingDelta_.entries) {
            if (entry.kind == DeltaEntry::Kind::AddNode) {
                if (entry.cls != nextId)
                    return problem("delta log add created e-class ",
                                   entry.cls, " out of sequence (expected ",
                                   nextId, ")");
                ++nextId;
                if (entry.op >= symbols_.size())
                    return problem("delta log add has unknown symbol id ",
                                   entry.op);
                for (Id child : entry.children) {
                    if (child >= entry.cls)
                        return problem("delta log add for e-class ",
                                       entry.cls, " references child ",
                                       child, " from the future");
                }
            } else {
                if (entry.from >= parent_.size() ||
                    entry.into >= parent_.size())
                    return problem("delta log merge ", entry.from, " -> ",
                                   entry.into, " is out of range");
                if (find(entry.from) != find(entry.into))
                    return problem("delta log merge ", entry.from, " -> ",
                                   entry.into,
                                   " was logged but the classes are not "
                                   "merged");
            }
        }
    }

    // The deep congruence checks only hold once rebuild() has drained the
    // worklist; between merge() and rebuild() staleness is by design.
    if (!worklist_.empty())
        return std::nullopt;

    // With a drained worklist, every logged add must still resolve
    // through the hashcons into the class it was logged against.
    if (deltaLog_) {
        for (const DeltaEntry& entry : pendingDelta_.entries) {
            if (entry.kind != DeltaEntry::Kind::AddNode)
                continue;
            Node form;
            form.op = entry.op;
            form.children = entry.children;
            const Node canon = canonicalize(form);
            const auto hc = hashcons_.find(canon);
            if (hc == hashcons_.end())
                return problem("delta log add \"", symbols_[entry.op],
                               "\" no longer resolves in the hashcons");
            if (find(hc->second) != find(entry.cls))
                return problem("delta log add \"", symbols_[entry.op],
                               "\" resolves to e-class ", find(hc->second),
                               " but was logged into e-class ",
                               find(entry.cls));
        }
    }

    // Ownership map: canonical node form -> the canonical class storing it.
    std::unordered_map<Node, Id, NodeHash> owner;
    for (Id cls = 0; cls < parent_.size(); ++cls) {
        if (find(cls) != cls)
            continue;
        if (classes_[cls].nodes.empty())
            return problem("canonical e-class ", cls, " has no e-nodes");
        for (const Node& node : classes_[cls].nodes) {
            if (node.op >= symbols_.size())
                return problem("e-class ", cls,
                               " holds a node with unknown symbol id ",
                               node.op);
            for (Id child : node.children) {
                if (child >= parent_.size())
                    return problem("e-class ", cls, " node child ", child,
                                   " is out of range");
            }
            const Node canon = canonicalize(node);
            const auto [it, inserted] = owner.emplace(canon, cls);
            if (!inserted && it->second != cls)
                return problem("node \"", symbols_[canon.op],
                               "\" is stored in both e-class ", it->second,
                               " and e-class ", cls);
            const auto hc = hashcons_.find(canon);
            if (hc == hashcons_.end())
                return problem("e-class ", cls, " node \"",
                               symbols_[canon.op],
                               "\" is missing from the hashcons");
            if (find(hc->second) != cls)
                return problem("hashcons resolves e-class ", cls,
                               " node \"", symbols_[canon.op],
                               "\" to e-class ", find(hc->second));
        }
    }
    for (const auto& [node, cls] : hashcons_) {
        if (!(canonicalize(node) == node))
            return problem("hashcons key \"", symbols_[node.op],
                           "\" is not canonical after rebuild");
        const auto it = owner.find(node);
        if (it == owner.end())
            return problem("hashcons node \"", symbols_[node.op],
                           "\" is stored in no e-class");
        if (it->second != find(cls))
            return problem("hashcons places \"", symbols_[node.op],
                           "\" in e-class ", find(cls),
                           " but e-class ", it->second, " stores it");
    }
    return std::nullopt;
}

std::size_t
MutEGraph::numClasses() const
{
    std::size_t count = 0;
    for (Id id = 0; id < parent_.size(); ++id) {
        if (find(id) == id)
            ++count;
    }
    return count;
}

std::vector<Subst>
MutEGraph::ematch(const Pattern& pattern, Id cls,
                  std::size_t max_matches) const
{
    cls = find(cls);
    std::vector<Subst> results;
    if (max_matches == 0)
        return results;
    if (pattern.isVar()) {
        Subst subst;
        subst[pattern.var] = cls;
        results.push_back(std::move(subst));
        return results;
    }
    const auto opIt = symbolIds_.find(pattern.op);
    if (opIt == symbolIds_.end())
        return results;
    const std::uint32_t opId = opIt->second;

    for (const Node& node : classes_[cls].nodes) {
        if (results.size() >= max_matches)
            break;
        if (node.op != opId || node.children.size() != pattern.children.size())
            continue;
        // Recursively match children with backtracking over substitutions.
        // The budget bounds the working cross-product as well as the
        // result: merged classes can hold thousands of congruent nodes,
        // and an unbounded product of per-child matches is what turns a
        // saturation run into a memory explosion.
        const std::size_t room = max_matches - results.size();
        std::vector<Subst> partials{Subst{}};
        bool dead = false;
        for (std::size_t i = 0; i < pattern.children.size() && !dead; ++i) {
            std::vector<Subst> next;
            for (const Subst& partial : partials) {
                if (next.size() >= room)
                    break;
                // Bind pattern child i against node child class i.
                const Pattern& childPattern = *pattern.children[i];
                if (childPattern.isVar()) {
                    const auto bound = partial.find(childPattern.var);
                    if (bound != partial.end()) {
                        if (find(bound->second) == find(node.children[i]))
                            next.push_back(partial);
                        continue;
                    }
                    Subst extended = partial;
                    extended[childPattern.var] = find(node.children[i]);
                    next.push_back(std::move(extended));
                    continue;
                }
                for (Subst sub :
                     ematch(childPattern, node.children[i], room)) {
                    if (next.size() >= room)
                        break;
                    bool ok = true;
                    for (const auto& [var, boundCls] : partial) {
                        const auto it = sub.find(var);
                        if (it != sub.end() &&
                            find(it->second) != find(boundCls)) {
                            ok = false;
                            break;
                        }
                    }
                    if (!ok)
                        continue;
                    for (const auto& [var, boundCls] : partial)
                        sub.emplace(var, boundCls);
                    next.push_back(std::move(sub));
                }
            }
            partials = std::move(next);
            if (partials.empty())
                dead = true;
        }
        for (auto& subst : partials) {
            if (results.size() >= max_matches)
                break;
            results.push_back(std::move(subst));
        }
    }
    return results;
}

std::vector<std::pair<Id, Subst>>
MutEGraph::ematchAll(const Pattern& pattern, std::size_t max_matches) const
{
    std::vector<std::pair<Id, Subst>> results;
    std::set<Id> canonical;
    for (Id id = 0; id < parent_.size(); ++id)
        canonical.insert(find(id));
    for (Id cls : canonical) {
        if (results.size() >= max_matches)
            break;
        for (Subst& subst :
             ematch(pattern, cls, max_matches - results.size()))
            results.emplace_back(cls, std::move(subst));
    }
    return results;
}

Id
MutEGraph::instantiate(const Pattern& pattern, const Subst& subst)
{
    if (pattern.isVar()) {
        const auto it = subst.find(pattern.var);
        SMOOTHE_ASSERT(it != subst.end(), "unbound pattern variable \"%s\"",
                       pattern.var.c_str());
        return find(it->second);
    }
    std::vector<Id> children;
    children.reserve(pattern.children.size());
    for (const auto& child : pattern.children)
        children.push_back(instantiate(*child, subst));
    return add(pattern.op, std::move(children));
}

RunStats
MutEGraph::run(const std::vector<Rewrite>& rules, const RunLimits& limits)
{
    obs::Span runSpan("eqsat.run", "eqsat");
    RunStats stats;
    for (std::size_t iter = 0; iter < limits.maxIterations; ++iter) {
        ++stats.iterations;
        obs::Span iterSpan("eqsat.iteration", "eqsat");
        // Phase 1: read-only match collection (egg's two-phase scheme
        // keeps match sets consistent while the graph mutates).
        std::vector<std::tuple<const Rewrite*, Id, Subst>> matches;
        for (const Rewrite& rule : rules) {
            auto found = ematchAll(*rule.lhs, limits.maxMatchesPerRule);
            for (auto& [cls, subst] : found)
                matches.emplace_back(&rule, cls, std::move(subst));
        }
        stats.totalMatches += matches.size();
        obs::counter("eqsat.matches").add(matches.size());

        // Phase 2: apply.
        const std::size_t nodesBefore = numNodes();
        bool changed = false;
        for (auto& [rule, cls, subst] : matches) {
            const Id rhsClass = instantiate(*rule->rhs, subst);
            if (find(rhsClass) != find(cls)) {
                merge(cls, rhsClass);
                changed = true;
            }
            if (numNodes() > limits.maxNodes) {
                stats.hitNodeLimit = true;
                break;
            }
        }
        rebuild();
        SMOOTHE_DCHECK_OK(checkInvariants());
        if (numNodes() != nodesBefore)
            changed = true;
        if (stats.hitNodeLimit)
            break;
        if (!changed) {
            stats.saturated = true;
            break;
        }
    }
    stats.finalNodes = numNodes();
    stats.finalClasses = numClasses();
    return stats;
}

eg::EGraph
MutEGraph::exportGraph(
    Id root,
    const std::function<double(const std::string&, std::size_t)>& cost_of)
    const
{
    ExportState fresh;
    return exportIncremental(root, cost_of, fresh).graph;
}

void
MutEGraph::enableDeltaLog(bool on)
{
    deltaLog_ = on;
    pendingDelta_ = Delta{};
    if (on) {
        pendingDelta_.baseNodes = parent_.size();
        pendingDelta_.baseSymbols = symbols_.size();
    }
}

Delta
MutEGraph::drainDelta()
{
    SMOOTHE_CHECK(deltaLog_, "drainDelta called with the delta log off");
    Delta out = std::move(pendingDelta_);
    pendingDelta_ = Delta{};
    pendingDelta_.baseNodes = parent_.size();
    pendingDelta_.baseSymbols = symbols_.size();
    return out;
}

void
MutEGraph::applyDelta(const Delta& delta)
{
    SMOOTHE_CHECK(parent_.size() == delta.baseNodes,
                  "applyDelta: graph holds %zu ids but the delta was "
                  "logged on a base of %zu",
                  parent_.size(), delta.baseNodes);
    SMOOTHE_CHECK(symbols_.size() == delta.baseSymbols,
                  "applyDelta: graph holds %zu symbols but the delta was "
                  "logged on a base of %zu",
                  symbols_.size(), delta.baseSymbols);
    static obs::Counter& merges = obs::counter("eqsat.merges");
    for (const std::string& name : delta.symbolsAdded) {
        const std::uint32_t id = internSymbol(name);
        SMOOTHE_ASSERT(id + 1 == symbols_.size(),
                       "applyDelta: symbol \"%s\" was already interned",
                       name.c_str());
    }
    for (const DeltaEntry& entry : delta.entries) {
        if (entry.kind == DeltaEntry::Kind::AddNode) {
            // Replay of add()'s hashcons-miss path. The children were
            // canonical when logged and every prior mutation has been
            // replayed, so they are canonical here too.
            Node node;
            node.op = entry.op;
            node.children = entry.children;
            for (Id& child : node.children)
                child = find(child);
            SMOOTHE_ASSERT(hashcons_.find(node) == hashcons_.end(),
                           "applyDelta: replayed add of \"%s\" already "
                           "exists",
                           symbols_[entry.op].c_str());
            const Id id = static_cast<Id>(parent_.size());
            SMOOTHE_ASSERT(id == entry.cls,
                           "applyDelta: replayed add created e-class %u "
                           "but the log expected %u",
                           id, entry.cls);
            parent_.push_back(id);
            classes_.emplace_back();
            classes_[id].nodes.push_back(node);
            hashcons_[node] = id;
            for (Id child : node.children)
                classes_[child].parents.emplace_back(node, id);
            if (deltaLog_) {
                DeltaEntry logged;
                logged.kind = DeltaEntry::Kind::AddNode;
                logged.op = node.op;
                logged.children = node.children;
                logged.cls = id;
                pendingDelta_.entries.push_back(std::move(logged));
            }
        } else {
            // Forced-direction union: the log records which side survived,
            // and replay must reproduce that choice exactly — the usual
            // union-by-size tie-break could pick differently here because
            // parent lists are deduplicated lazily.
            const Id from = entry.from;
            const Id into = entry.into;
            SMOOTHE_ASSERT(from < parent_.size() && into < parent_.size(),
                           "applyDelta: merge %u -> %u is out of range",
                           entry.from, entry.into);
            SMOOTHE_ASSERT(find(from) == from && find(into) == into &&
                               from != into,
                           "applyDelta: merge %u -> %u does not name two "
                           "distinct canonical classes",
                           entry.from, entry.into);
            merges.add(1);
            parent_[from] = into;
            auto& survivor = classes_[into];
            auto& absorbed = classes_[from];
            survivor.nodes.insert(survivor.nodes.end(),
                                  absorbed.nodes.begin(),
                                  absorbed.nodes.end());
            survivor.parents.insert(survivor.parents.end(),
                                    absorbed.parents.begin(),
                                    absorbed.parents.end());
            absorbed.nodes.clear();
            absorbed.nodes.shrink_to_fit();
            absorbed.parents.clear();
            absorbed.parents.shrink_to_fit();
            worklist_.push_back(into);
            if (deltaLog_) {
                DeltaEntry logged;
                logged.kind = DeltaEntry::Kind::Merge;
                logged.from = from;
                logged.into = into;
                pendingDelta_.entries.push_back(logged);
            }
        }
    }
    // The congruence merges the original run discovered inside rebuild()
    // are part of the log and were just replayed; this final rebuild only
    // re-canonicalizes storage so the graphs compare equal.
    rebuild();
}

std::optional<std::string>
MutEGraph::structurallyEquals(const MutEGraph& other) const
{
    const auto problem = [](auto&&... parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        return std::optional<std::string>(oss.str());
    };

    if (!worklist_.empty() || !other.worklist_.empty())
        return problem("structural comparison requires drained worklists");
    if (parent_.size() != other.parent_.size())
        return problem("id counts differ: ", parent_.size(), " vs ",
                       other.parent_.size());
    if (symbols_ != other.symbols_)
        return problem("symbol tables differ");

    // The union-find partitions must induce a bijection between the two
    // sets of canonical representatives.
    constexpr Id kUnmapped = static_cast<Id>(-1);
    std::vector<Id> map(parent_.size(), kUnmapped);
    std::vector<Id> reverse(parent_.size(), kUnmapped);
    for (Id id = 0; id < parent_.size(); ++id) {
        const Id a = find(id);
        const Id b = other.find(id);
        if (map[a] == kUnmapped) {
            if (reverse[b] != kUnmapped)
                return problem("partitions differ: ids ", id, " and ",
                               reverse[b],
                               " are equivalent in one graph only");
            map[a] = b;
            reverse[b] = a;
        } else if (map[a] != b) {
            return problem("partitions differ at id ", id, ": class ", a,
                           " maps to both ", map[a], " and ", b);
        }
    }

    // Each paired class must store the same set of canonical e-nodes,
    // compared in the other graph's id space. Node lists may hold stale
    // forms (rebuild re-canonicalizes lazily), so canonicalize and
    // deduplicate both sides before comparing.
    const auto nodeLess = [](const Node& x, const Node& y) {
        if (x.op != y.op)
            return x.op < y.op;
        return x.children < y.children;
    };
    const auto canonSet = [&](const MutEGraph& graph, Id cls) {
        std::vector<Node> out;
        out.reserve(graph.classes_[cls].nodes.size());
        for (const Node& node : graph.classes_[cls].nodes) {
            Node mapped;
            mapped.op = node.op;
            mapped.children.reserve(node.children.size());
            for (Id child : node.children)
                mapped.children.push_back(other.find(child));
            out.push_back(std::move(mapped));
        }
        std::sort(out.begin(), out.end(), nodeLess);
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    };
    for (Id cls = 0; cls < parent_.size(); ++cls) {
        if (find(cls) != cls)
            continue;
        const std::vector<Node> mine = canonSet(*this, cls);
        const std::vector<Node> theirs = canonSet(other, map[cls]);
        if (!(mine == theirs))
            return problem("e-class ", cls, " stores ", mine.size(),
                           " canonical nodes but its counterpart ",
                           map[cls], " stores ", theirs.size(),
                           " (or the sets differ)");
    }
    return std::nullopt;
}

ExportResult
MutEGraph::exportIncremental(
    Id root,
    const std::function<double(const std::string&, std::size_t)>& cost_of,
    ExportState& state) const
{
    SMOOTHE_CHECK(worklist_.empty(),
                  "export requires a rebuilt graph");
    ExportResult result;
    eg::EGraph& out = result.graph;

    // Map canonical mutable ids to dense export class ids, then emit each
    // class's member nodes, deduplicated after canonicalization. The
    // export ids are recorded so the delta can relate this epoch to the
    // last one held in `state`.
    std::vector<Id> canonical;
    std::unordered_map<Id, eg::ClassId> classMap;
    for (Id id = 0; id < parent_.size(); ++id) {
        if (find(id) == id) {
            classMap[id] = out.addClass();
            canonical.push_back(id);
        }
    }
    std::unordered_map<Node, eg::NodeId, NodeHash> nodeByForm;
    for (Id cls : canonical) {
        for (const Node& node : classes_[cls].nodes) {
            const Node canon = canonicalize(node);
            if (nodeByForm.count(canon))
                continue;
            std::vector<eg::ClassId> children;
            children.reserve(canon.children.size());
            for (Id child : canon.children)
                children.push_back(classMap.at(find(child)));
            const std::string& opName = symbols_[canon.op];
            const eg::NodeId nodeId =
                out.addNode(classMap.at(cls), opName, std::move(children),
                            cost_of(opName, canon.children.size()));
            nodeByForm[canon] = nodeId;
        }
    }
    out.setRoot(classMap.at(find(root)));
    const auto err = out.finalize();
    SMOOTHE_ASSERT(!err.has_value(),
                   "exported e-graph must be well-formed: %s",
                   err ? err->c_str() : "");
    SMOOTHE_DCHECK_OK(out.checkInvariants());

    // Relate the previous export to this one. Saturation is grow-only:
    // every previous class still exists (possibly merged) and every
    // previous node's canonical form is still stored (possibly collapsed
    // with a congruent sibling), so both forward maps are total.
    eg::GraphDelta& delta = result.delta;
    if (state.valid) {
        delta.prevNumNodes = state.prevNumNodes;
        delta.prevNumClasses = state.prevNumClasses;
        delta.classForward.resize(state.prevNumClasses);
        for (const auto& [mutId, prevCls] : state.classOfMut)
            delta.classForward[prevCls] = classMap.at(find(mutId));
        delta.nodeForward.resize(state.prevNumNodes);
        for (const auto& [prevForm, prevNodeId] : state.nodeByForm) {
            const Node canon = canonicalize(prevForm);
            const auto it = nodeByForm.find(canon);
            SMOOTHE_ASSERT(it != nodeByForm.end(),
                           "exportIncremental: previous node \"%s\" "
                           "vanished — was the graph rebuilt from scratch?",
                           symbols_[prevForm.op].c_str());
            delta.nodeForward[prevNodeId] = it->second;
        }
    }
    delta.deriveReverseMaps(out.numNodes(), out.numClasses());

    SMOOTHE_DCHECK_OK(delta.checkConsistent(out));

    state.valid = true;
    state.prevNumNodes = out.numNodes();
    state.prevNumClasses = out.numClasses();
    state.classOfMut = std::move(classMap);
    state.nodeByForm = std::move(nodeByForm);
    return result;
}

} // namespace smoothe::eqsat
