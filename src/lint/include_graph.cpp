#include "lint/include_graph.hpp"

#include <algorithm>
#include <tuple>

#include "lint/lexer.hpp"

namespace tvacr::lint {
namespace {

/// Splits a path into components on '/'.
std::vector<std::string> components(const std::string& path) {
    std::vector<std::string> out;
    std::string current;
    for (const char c : path) {
        if (c == '/') {
            if (!current.empty()) out.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty()) out.push_back(current);
    return out;
}

/// Parses `#include "..."` out of one preprocessor token; returns the quoted
/// target or "" (system includes and other directives).
std::string quoted_include_target(const std::string& directive) {
    std::size_t at = 0;
    while (at < directive.size() &&
           (directive[at] == '#' || directive[at] == ' ' || directive[at] == '\t')) {
        ++at;
    }
    constexpr std::string_view kInclude = "include";
    if (directive.compare(at, kInclude.size(), kInclude) != 0) return "";
    at += kInclude.size();
    while (at < directive.size() && (directive[at] == ' ' || directive[at] == '\t')) ++at;
    if (at >= directive.size() || directive[at] != '"') return "";
    const std::size_t close = directive.find('"', at + 1);
    if (close == std::string::npos) return "";
    return directive.substr(at + 1, close - at - 1);
}

}  // namespace

std::string module_of(const std::string& path) {
    const std::vector<std::string> parts = components(path);
    if (parts.empty()) return "";
    // Walk past any leading directories down to a "src" component so both
    // repo-relative ("src/net/x.cpp") and absolute paths resolve.
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        if (parts[i] == "src") return parts[i + 1];
    }
    // An include string ("net/packet.hpp") names the module directly; a
    // top-level tree ("tools/x.cpp", "bench/...") is its first component.
    if (parts.size() >= 2) return parts[0];
    return "";
}

const std::map<std::string, std::set<std::string>>& layering_contract() {
    // Declared, not derived: this is the architecture, and the linter fails
    // any edge that isn't in it. Keep in sync with DESIGN.md §11.
    static const std::map<std::string, std::set<std::string>> kContract = {
        {"common", {}},
        {"lint", {}},
        {"obs", {"common"}},
        {"net", {"common"}},
        {"fp", {"common"}},
        {"dns", {"common", "net"}},
        {"geo", {"common", "net"}},
        {"fault", {"common", "obs"}},
        {"sim", {"common", "dns", "fault", "net", "obs"}},
        {"analysis", {"common", "dns", "net"}},
        {"tv", {"common", "fp", "sim"}},
        {"replay", {"analysis", "common", "net"}},
        {"gateway", {"analysis", "common", "net", "obs", "replay"}},
        {"fleet", {"analysis", "common", "dns", "fault", "net", "obs", "replay", "tv"}},
        {"core", {"analysis", "common", "fault", "fp", "geo", "obs", "replay", "sim", "tv"}},
        // The test-only reference engines (tests/oracle): no module may
        // include them, so a library edge to "oracle/..." is a finding.
        {"oracle", {}},
    };
    return kContract;
}

IncludeGraph IncludeGraph::build(
    const std::vector<std::pair<std::string, std::string>>& sources) {
    IncludeGraph graph;
    for (const auto& [path, source] : sources) {
        const std::string from_module = module_of(path);
        for (const Token& token : lex(source)) {
            if (token.kind != TokenKind::kPreprocessor) continue;
            const std::string target = quoted_include_target(token.text);
            if (target.empty()) continue;
            IncludeEdge edge;
            edge.from_path = path;
            edge.from_module = from_module;
            edge.to_include = target;
            edge.to_module = module_of(target);
            edge.line = token.line;
            graph.edges_.push_back(std::move(edge));
        }
    }
    std::sort(graph.edges_.begin(), graph.edges_.end(),
              [](const IncludeEdge& a, const IncludeEdge& b) {
                  return std::tie(a.from_path, a.line, a.to_include) <
                         std::tie(b.from_path, b.line, b.to_include);
              });
    return graph;
}

void IncludeGraph::check(std::vector<Finding>& out) const {
    const auto& contract = layering_contract();

    // Layering: every edge between two contract modules must be allowed.
    for (const IncludeEdge& edge : edges_) {
        const auto from = contract.find(edge.from_module);
        if (from == contract.end()) continue;  // tools/bench/tests: unconstrained
        if (edge.to_module.empty() || edge.to_module == edge.from_module) continue;
        if (contract.count(edge.to_module) == 0) continue;  // non-module include
        if (from->second.count(edge.to_module) > 0) continue;
        out.push_back(Finding{
            edge.from_path, edge.line, kIncludeLayeringRule,
            "module '" + edge.from_module + "' may not include '" + edge.to_include +
                "' (layer '" + edge.to_module + "' is not in its declared dependencies)"});
    }

    // Cycles: DFS over the module graph restricted to contract modules. The
    // adjacency is sorted, so the first cycle found per start module is
    // deterministic; each cycle is reported once, keyed by its smallest
    // rotation.
    std::map<std::string, std::set<std::string>> adjacency;
    for (const IncludeEdge& edge : edges_) {
        if (contract.count(edge.from_module) == 0 || contract.count(edge.to_module) == 0) {
            continue;
        }
        if (edge.to_module != edge.from_module) adjacency[edge.from_module].insert(edge.to_module);
    }
    std::set<std::string> reported;
    for (const auto& [start, unused] : adjacency) {
        std::vector<std::string> path{start};
        std::set<std::string> on_path{start};
        // Iterative DFS with explicit iterator stack for determinism.
        std::vector<std::set<std::string>::const_iterator> iters{adjacency[start].begin()};
        while (!iters.empty()) {
            const std::string& node = path.back();
            auto& it = iters.back();
            if (it == adjacency[node].end()) {
                on_path.erase(node);
                path.pop_back();
                iters.pop_back();
                continue;
            }
            const std::string next = *it++;
            if (on_path.count(next) > 0) {
                // Found a cycle: the path suffix from `next` onward.
                const auto cycle_start = std::find(path.begin(), path.end(), next);
                std::vector<std::string> cycle(cycle_start, path.end());
                // Canonical rotation: start at the smallest module name.
                const auto smallest = std::min_element(cycle.begin(), cycle.end());
                std::rotate(cycle.begin(), smallest, cycle.end());
                std::string key;
                for (const auto& m : cycle) key += m + " -> ";
                key += cycle.front();
                if (reported.insert(key).second) {
                    // Anchor the finding at the first edge of the cycle.
                    std::string anchor_path = cycle.front();
                    std::uint32_t anchor_line = 1;
                    for (const IncludeEdge& edge : edges_) {
                        if (edge.from_module == cycle.front() &&
                            edge.to_module == cycle[1 % cycle.size()]) {
                            anchor_path = edge.from_path;
                            anchor_line = edge.line;
                            break;
                        }
                    }
                    out.push_back(Finding{anchor_path, anchor_line, kIncludeCycleRule,
                                          "include cycle: " + key});
                }
                continue;
            }
            if (adjacency.count(next) == 0) continue;
            path.push_back(next);
            on_path.insert(next);
            iters.push_back(adjacency[next].begin());
        }
    }
}

}  // namespace tvacr::lint
