// Include-graph extraction, declared layering contract and cycle detection.
//
// The tree is layered: `common` depends on nothing, the protocol layers
// (`net`, `dns`, `fp`, ...) must never reach up into `analysis`/`core`, and
// `core` is the only module allowed to see everything. That contract is
// declared here as an explicit allowed-dependency table (DESIGN.md §11) and
// enforced as two findings tvacr_lint emits on top of the per-file rules:
//
//   include-layering   an `#include "a/..."` edge the table does not allow
//   include-cycle      a strongly-connected component in the module graph
//
// Neither is inline-suppressible (the edge is the fact): an edge is accepted
// only by adding it to layering_contract().
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/rule.hpp"

namespace tvacr::lint {

inline constexpr const char* kIncludeLayeringRule = "include-layering";
inline constexpr const char* kIncludeCycleRule = "include-cycle";

/// One `#include "..."` reference (quoted includes only; system headers are
/// outside the layering contract).
struct IncludeEdge {
    std::string from_path;    // display path of the including file
    std::string from_module;  // module of the including file ("" if unknown)
    std::string to_include;   // the include string as written ("net/packet.hpp")
    std::string to_module;    // module of the included header ("" if unknown)
    std::uint32_t line = 0;
};

/// Module name for a display path: "src/net/foo.cpp" -> "net",
/// "tools/x.cpp" -> "tools", "net/packet.hpp" (an include string) -> "net".
/// Returns "" when no module component can be identified.
[[nodiscard]] std::string module_of(const std::string& path);

/// The declared layering contract: module -> modules it may include. Modules
/// absent from the table (tools, bench, tests, examples) are unconstrained.
[[nodiscard]] const std::map<std::string, std::set<std::string>>& layering_contract();

class IncludeGraph {
  public:
    /// Extracts quoted-include edges from already-loaded sources
    /// ((display path, contents) pairs, any order).
    [[nodiscard]] static IncludeGraph build(
        const std::vector<std::pair<std::string, std::string>>& sources);

    [[nodiscard]] const std::vector<IncludeEdge>& edges() const noexcept { return edges_; }

    /// Appends include-layering and include-cycle findings.
    void check(std::vector<Finding>& out) const;

  private:
    std::vector<IncludeEdge> edges_;  // sorted by (from_path, line, to_include)
};

}  // namespace tvacr::lint
