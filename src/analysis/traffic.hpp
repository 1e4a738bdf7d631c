// Per-domain traffic accounting over a capture: the substrate for the
// paper's Tables 2-5 (kilobytes per domain per scenario) and Figures 4-11
// (packet timing).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dns_map.hpp"
#include "common/time.hpp"
#include "net/address.hpp"

namespace tvacr::analysis {

/// One captured packet attributed to a remote domain.
struct PacketEvent {
    SimTime timestamp;
    std::uint32_t frame_bytes = 0;
    bool device_to_server = false;
};

struct DomainStats {
    std::string domain;
    std::vector<net::Ipv4Address> addresses;
    std::uint64_t packets = 0;
    std::uint64_t bytes_up = 0;    // device -> server, frame bytes
    std::uint64_t bytes_down = 0;  // server -> device
    SimTime first_seen;
    SimTime last_seen;
    std::vector<PacketEvent> events;  // time-ordered

    [[nodiscard]] std::uint64_t bytes_total() const noexcept { return bytes_up + bytes_down; }
    [[nodiscard]] double kilobytes() const noexcept {
        return static_cast<double>(bytes_total()) / 1000.0;
    }
};

/// The analysis of one capture: its harvested DNS and every IP packet
/// involving the device, attributed to the remote endpoint's domain (or
/// "unresolved:<ip>"). StreamingCaptureAnalyzer builds it; this type only
/// holds and queries the result.
class CaptureAnalyzer {
  public:
    CaptureAnalyzer(net::Ipv4Address device_ip, DnsMap dns,
                    std::map<std::string, DomainStats> domains, std::uint64_t packets_total,
                    std::uint64_t unparseable)
        : device_ip_(device_ip),
          dns_(std::move(dns)),
          domains_(std::move(domains)),
          packets_total_(packets_total),
          unparseable_(unparseable) {}

    [[nodiscard]] const DnsMap& dns() const noexcept { return dns_; }
    [[nodiscard]] net::Ipv4Address device_ip() const noexcept { return device_ip_; }

    /// Per-domain stats, sorted by total bytes descending.
    [[nodiscard]] std::vector<const DomainStats*> domains_by_bytes() const;
    [[nodiscard]] const DomainStats* find(const std::string& domain) const;
    [[nodiscard]] double kilobytes_for(const std::string& domain) const;

    [[nodiscard]] std::uint64_t packets_total() const noexcept { return packets_total_; }
    [[nodiscard]] std::uint64_t unparseable() const noexcept { return unparseable_; }

  private:
    net::Ipv4Address device_ip_;
    DnsMap dns_;
    std::map<std::string, DomainStats> domains_;
    std::uint64_t packets_total_ = 0;
    std::uint64_t unparseable_ = 0;
};

}  // namespace tvacr::analysis
