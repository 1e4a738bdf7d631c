#include "analysis/traffic.hpp"

#include <algorithm>

namespace tvacr::analysis {

std::vector<const DomainStats*> CaptureAnalyzer::domains_by_bytes() const {
    std::vector<const DomainStats*> out;
    out.reserve(domains_.size());
    for (const auto& [name, stats] : domains_) out.push_back(&stats);
    // Tie-break on the domain name: without it, equal-byte domains surface
    // in whatever permutation std::sort leaves, and that order reaches
    // rendered reports (same leak class as net::FlowTable::sorted_by_bytes).
    std::sort(out.begin(), out.end(), [](const DomainStats* a, const DomainStats* b) {
        if (a->bytes_total() != b->bytes_total()) return a->bytes_total() > b->bytes_total();
        return a->domain < b->domain;
    });
    return out;
}

const DomainStats* CaptureAnalyzer::find(const std::string& domain) const {
    const auto it = domains_.find(domain);
    return it == domains_.end() ? nullptr : &it->second;
}

double CaptureAnalyzer::kilobytes_for(const std::string& domain) const {
    const auto* stats = find(domain);
    return stats == nullptr ? 0.0 : stats->kilobytes();
}

}  // namespace tvacr::analysis
