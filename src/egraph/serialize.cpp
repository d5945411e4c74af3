#include "egraph/serialize.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "check/contracts.hpp"
#include "util/json.hpp"

namespace smoothe::eg {

using util::Json;

std::string
toJson(const EGraph& graph, bool pretty)
{
    // Use one representative node id per class so children can reference
    // node ids as the gym format requires.
    std::vector<NodeId> representative(graph.numClasses(), kNoNode);
    for (ClassId cls = 0; cls < graph.numClasses(); ++cls)
        representative[cls] = graph.nodesInClass(cls).front();

    // Node ids are unique keys, so entries are appended directly rather
    // than through Json::set, whose duplicate-key scan made this
    // quadratic in the node count.
    Json::Object nodes;
    nodes.reserve(graph.numNodes());
    for (NodeId nid = 0; nid < graph.numNodes(); ++nid) {
        const ENode node = graph.node(nid);
        Json children = Json::makeArray();
        for (ClassId child : node.children)
            children.push(std::to_string(representative[child]));
        Json::Object entry;
        entry.reserve(4);
        entry.emplace_back("op", node.op);
        entry.emplace_back("children", std::move(children));
        entry.emplace_back("eclass", std::to_string(graph.classOf(nid)));
        entry.emplace_back("cost", node.cost);
        nodes.emplace_back(std::to_string(nid), std::move(entry));
    }

    Json roots = Json::makeArray();
    roots.push(std::to_string(graph.root()));

    Json doc = Json::makeObject();
    doc.set("nodes", std::move(nodes));
    doc.set("root_eclasses", std::move(roots));
    return pretty ? doc.dumpPretty() : doc.dump();
}

namespace {

void
setError(std::string* error, const std::string& message)
{
    if (error && error->empty())
        *error = message;
}

} // namespace

std::optional<EGraph>
fromJson(const std::string& text, std::string* error)
{
    if (error)
        error->clear();
    auto doc = Json::parse(text, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        setError(error, "top-level JSON value must be an object");
        return std::nullopt;
    }
    const Json* nodes = doc->find("nodes");
    if (!nodes || !nodes->isObject()) {
        setError(error, "missing \"nodes\" object");
        return std::nullopt;
    }
    if (nodes->asObject().empty()) {
        setError(error, "e-graph has no nodes");
        return std::nullopt;
    }

    // First pass: assign dense class ids and map node-id -> class-id.
    std::map<std::string, ClassId> classIds;
    std::map<std::string, std::string> nodeToClass;
    EGraph graph;
    for (const auto& [nodeKey, entry] : nodes->asObject()) {
        if (!entry.isObject()) {
            setError(error, "node entry must be an object");
            return std::nullopt;
        }
        const Json* eclass = entry.find("eclass");
        if (!eclass || !eclass->isString()) {
            setError(error, "node \"" + nodeKey + "\" missing eclass");
            return std::nullopt;
        }
        const std::string& classKey = eclass->asString();
        // A repeated key would make child references ambiguous.
        if (!nodeToClass.emplace(nodeKey, classKey).second) {
            setError(error, "duplicate node id \"" + nodeKey + "\"");
            return std::nullopt;
        }
        if (!classIds.count(classKey))
            classIds[classKey] = graph.addClass();
    }

    // Second pass: add nodes, resolving children node-ids to class ids.
    for (const auto& [nodeKey, entry] : nodes->asObject()) {
        const Json* op = entry.find("op");
        const Json* children = entry.find("children");
        const Json* cost = entry.find("cost");
        const double nodeCost =
            (cost && cost->isNumber()) ? cost->asNumber() : 1.0;
        std::vector<ClassId> nodeChildren;
        if (cost && !cost->isNumber()) {
            setError(error,
                     "node \"" + nodeKey + "\" cost must be a number");
            return std::nullopt;
        }
        if (!std::isfinite(nodeCost)) {
            setError(error, "node \"" + nodeKey + "\" cost is not finite");
            return std::nullopt;
        }
        // SmoothE computes in float: a larger cost would become inf.
        if (std::fabs(nodeCost) > std::numeric_limits<float>::max()) {
            setError(error, "node \"" + nodeKey +
                                "\" cost exceeds the float range");
            return std::nullopt;
        }
        if (children) {
            if (!children->isArray()) {
                setError(error, "children must be an array");
                return std::nullopt;
            }
            for (const Json& childRef : children->asArray()) {
                if (!childRef.isString()) {
                    setError(error, "child reference must be a string");
                    return std::nullopt;
                }
                const auto it = nodeToClass.find(childRef.asString());
                if (it == nodeToClass.end()) {
                    setError(error, "child node \"" + childRef.asString() +
                                        "\" not found");
                    return std::nullopt;
                }
                nodeChildren.push_back(classIds[it->second]);
            }
        }
        graph.addNode(classIds[nodeToClass[nodeKey]],
                      (op && op->isString()) ? op->asString() : "?",
                      nodeChildren, nodeCost);
    }

    // Root.
    const Json* roots = doc->find("root_eclasses");
    if (!roots || !roots->isArray() || roots->asArray().empty()) {
        setError(error, "missing \"root_eclasses\"");
        return std::nullopt;
    }
    const Json& rootRef = roots->asArray().front();
    if (!rootRef.isString()) {
        setError(error, "root e-class reference must be a string");
        return std::nullopt;
    }
    std::string rootKey = rootRef.asString();
    // The gym stores either a class id or a node id here; accept both.
    if (classIds.count(rootKey)) {
        graph.setRoot(classIds[rootKey]);
    } else if (nodeToClass.count(rootKey)) {
        graph.setRoot(classIds[nodeToClass[rootKey]]);
    } else {
        setError(error, "root \"" + rootKey + "\" not found");
        return std::nullopt;
    }

    if (auto err = graph.finalize()) {
        setError(error, *err);
        return std::nullopt;
    }
    SMOOTHE_DCHECK_OK(graph.checkInvariants());
    return graph;
}

std::optional<EGraph>
loadFromFile(const std::string& path, std::string* error)
{
    auto text = util::readFile(path);
    if (!text) {
        setError(error, "cannot read file: " + path);
        return std::nullopt;
    }
    return fromJson(*text, error);
}

bool
saveToFile(const EGraph& graph, const std::string& path)
{
    return util::writeFile(path, toJson(graph, /*pretty=*/true));
}

} // namespace smoothe::eg
