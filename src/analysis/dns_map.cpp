#include "analysis/dns_map.hpp"

#include "dns/message.hpp"

namespace tvacr::analysis {

void DnsMap::ingest_payload(BytesView payload, SimTime timestamp) {
    auto message = dns::DnsMessage::decode(payload);
    if (!message || !message.value().is_response) return;
    ++responses_seen_;
    if (message.value().questions.empty()) return;

    const std::string queried = message.value().questions.front().name.to_string();
    auto& entry = by_name_[queried];
    if (entry.name.empty()) {
        entry.name = queried;
        entry.first_seen = timestamp;
    }
    for (const auto& record : message.value().answers) {
        if (record.type != dns::RecordType::kA) continue;
        const auto address = std::get<net::Ipv4Address>(record.rdata);
        by_address_.emplace(address, queried);  // first mapping wins
        entry.addresses.push_back(address);
    }
}

const std::string* DnsMap::mapping_of(net::Ipv4Address address) const {
    const auto it = by_address_.find(address);
    return it == by_address_.end() ? nullptr : &it->second;
}

std::vector<DnsMap::QueriedName> DnsMap::queried_names() const {
    std::vector<QueriedName> out;
    out.reserve(by_name_.size());
    for (const auto& [name, entry] : by_name_) out.push_back(entry);
    return out;
}

}  // namespace tvacr::analysis
