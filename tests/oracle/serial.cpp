#include "oracle/serial.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "dns/message.hpp"

namespace tvacr::oracle {

analysis::CaptureAnalyzer analyze_serial(const std::vector<net::Packet>& packets,
                                         net::Ipv4Address device_ip) {
    analysis::DnsMap dns;
    std::map<std::string, analysis::DomainStats> domains;
    std::uint64_t unparseable = 0;
    for (const net::Packet& packet : packets) {
        auto parsed = net::parse_packet(packet);
        if (!parsed || !parsed.value().ip) {
            ++unparseable;
            continue;
        }
        const net::ParsedPacket& layers = parsed.value();
        if (layers.udp && layers.udp->source_port == dns::kDnsPort) {
            dns.ingest_payload(layers.payload, layers.timestamp);
        }

        const bool up = layers.ip->source == device_ip;
        const bool down = layers.ip->destination == device_ip;
        if (!up && !down) continue;  // not the device's traffic
        const net::Ipv4Address remote = up ? layers.ip->destination : layers.ip->source;
        const std::string* mapped = dns.mapping_of(remote);
        const std::string domain = mapped != nullptr ? *mapped : "unresolved:" + remote.to_string();

        analysis::DomainStats& stats = domains[domain];
        if (stats.packets == 0) {
            stats.domain = domain;
            stats.first_seen = packet.timestamp;
        }
        if (std::find(stats.addresses.begin(), stats.addresses.end(), remote) ==
            stats.addresses.end()) {
            stats.addresses.push_back(remote);
        }
        const auto frame_bytes = static_cast<std::uint32_t>(packet.size());
        stats.packets += 1;
        if (up) {
            stats.bytes_up += frame_bytes;
        } else {
            stats.bytes_down += frame_bytes;
        }
        stats.last_seen = packet.timestamp;
        stats.events.push_back(analysis::PacketEvent{packet.timestamp, frame_bytes, up});
    }
    return analysis::CaptureAnalyzer(device_ip, std::move(dns), std::move(domains), packets.size(),
                                     unparseable);
}

}  // namespace tvacr::oracle
