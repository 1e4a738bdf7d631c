// DNS harvesting: recovering the IP -> domain mapping from captured DNS
// responses. The paper's workflow powers the TV on while capturing because
// "the majority of DNS requests are typically sent within the first few
// seconds after device activation" — this map is what makes the encrypted
// flows attributable to named endpoints.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "net/address.hpp"

namespace tvacr::analysis {

class DnsMap {
  public:
    /// Feeds the UDP payload of one captured datagram from the DNS source
    /// port (the frame's, or a .tvcr record's where the frame no longer
    /// exists). Responses contribute mappings; anything else is ignored.
    void ingest_payload(BytesView payload, SimTime timestamp);

    /// The domain a server IP was resolved from, or nullptr if the address
    /// was never resolved. When several names resolved to one IP, the first
    /// seen wins (stable attribution). The pointer stays valid while the map
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
