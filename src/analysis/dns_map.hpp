// DNS harvesting: recovering the IP -> domain mapping from captured DNS
// responses. The paper's workflow powers the TV on while capturing because
// "the majority of DNS requests are typically sent within the first few
// seconds after device activation" — this map is what makes the encrypted
// flows attributable to named endpoints.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "net/packet.hpp"

namespace tvacr::analysis {

class DnsMap {
  public:
    /// Feeds one captured packet; DNS responses (UDP port 53) contribute
    /// mappings, everything else is ignored.
    void ingest(const net::ParsedPacket& packet);

    /// Pre-extracted DNS payload (UDP datagram from the DNS source port),
    /// for the streaming path and for replay from a .tvcr event stream
    /// where the frame no longer exists. Identical semantics to ingesting a
    /// DNS-port packet carrying `payload`.
    void ingest_payload(BytesView payload, SimTime timestamp);

    /// Domain a server IP was resolved from, if seen. When several names
    /// resolved to one IP, the first seen wins (stable attribution).
    [[nodiscard]] std::optional<std::string> domain_of(net::Ipv4Address address) const;

    /// domain_of without the copy: the mapped domain, or nullptr if the
    /// address was never resolved. The pointer stays valid while the map
    /// lives, since a mapping is never replaced.
    [[nodiscard]] const std::string* mapping_of(net::Ipv4Address address) const;

    /// All names the device queried, with first-seen capture time.
    struct QueriedName {
        std::string name;
        SimTime first_seen;
        std::vector<net::Ipv4Address> addresses;
    };
    [[nodiscard]] std::vector<QueriedName> queried_names() const;

    [[nodiscard]] std::size_t mapping_count() const noexcept { return by_address_.size(); }
    [[nodiscard]] std::uint64_t responses_seen() const noexcept { return responses_seen_; }

  private:
    std::unordered_map<net::Ipv4Address, std::string> by_address_;
    std::map<std::string, QueriedName> by_name_;
    std::uint64_t responses_seen_ = 0;
};

}  // namespace tvacr::analysis
