#include "sim/cloud.hpp"

#include "common/rng.hpp"
#include "dns/message.hpp"
#include "fault/impairment.hpp"
#include "sim/access_point.hpp"
#include "sim/station.hpp"

namespace tvacr::sim {

Cloud::Cloud(Simulator& simulator, std::uint64_t seed)
    : simulator_(simulator),
      rng_(seed),
      m_datagrams_(simulator.obs().metrics.counter("cloud.datagrams")),
      m_dns_answered_(simulator.obs().metrics.counter("cloud.dns_answered")),
      m_dns_dropped_(simulator.obs().metrics.counter("cloud.dns_dropped")),
      m_dns_blocked_(simulator.obs().metrics.counter("cloud.dns_blocked")),
      m_data_dropped_(simulator.obs().metrics.counter("cloud.data_dropped")) {}

void Cloud::add_route(net::Ipv4Address destination, LatencyModel latency) {
    routes_[destination] = latency;
}

LatencyModel Cloud::route_latency(net::Ipv4Address destination) const {
    const auto it = routes_.find(destination);
    return it == routes_.end() ? default_route_ : it->second;
}

SimTime Cloud::sample_path_latency(net::Ipv4Address destination) {
    return route_latency(destination).sample(rng_);
}

std::size_t Cloud::TupleHash::operator()(const net::FiveTuple& t) const noexcept {
    std::uint64_t h = t.source.value();
    h = splitmix64(h ^ t.destination.value());
    h = splitmix64(h ^ (static_cast<std::uint64_t>(t.source_port) << 16) ^ t.destination_port);
    return static_cast<std::size_t>(h);
}

void Cloud::register_tcp_flow(const net::FiveTuple& flow, SegmentHandler handler) {
    tcp_flows_[flow.canonical()] = std::move(handler);
}

void Cloud::unregister_tcp_flow(const net::FiveTuple& flow) {
    tcp_flows_.erase(flow.canonical());
}

void Cloud::route_from_ap(AccessPoint& ap, const net::Packet& packet) {
    auto parsed = net::parse_packet(packet);
    if (!parsed || !parsed.value().ip) return;
    const auto destination = parsed.value().ip->destination;
    // Local AP traffic (e.g. to the gateway itself) does not enter the cloud.
    if (destination == ap.gateway_ip()) return;

    ++datagrams_routed_;
    m_datagrams_.add();
    SimTime path = sample_path_latency(destination);
    SimTime arrival = simulator_.now() + path;
    auto& last = last_arrival_[destination];
    if (arrival < last) arrival = last + SimTime::micros(1);
    last = arrival;
    path = arrival - simulator_.now();

    if (parsed.value().udp && is_dns_server(destination) &&
        parsed.value().udp->destination_port == dns::kDnsPort) {
        simulator_.after(path, [this, &ap, destination, parsed = std::move(parsed).value()]() {
            handle_dns(ap, parsed, destination);
        });
        return;
    }
    if (parsed.value().tcp) {
        // Uplink loss applies to data-bearing segments only.
        if (!parsed.value().payload.empty() && should_drop_data(destination)) return;
        auto flow = net::flow_of(parsed.value());
        if (!flow) return;
        const auto it = tcp_flows_.find(flow.value().canonical());
        if (it == tcp_flows_.end()) return;  // no listener: segment vanishes
        simulator_.after(path, [handler = it->second, parsed = std::move(parsed).value()]() {
            handler(parsed);
        });
        return;
    }
    // Anything else (ICMP, unknown UDP) is dropped by the simulated internet.
}

void Cloud::set_route_loss(net::Ipv4Address destination, double rate) {
    route_loss_[destination] = rate;
}

bool Cloud::should_drop_data(net::Ipv4Address destination) {
    const auto it = route_loss_.find(destination);
    if (it == route_loss_.end() || it->second <= 0.0) return false;
    if (!rng_.chance(it->second)) return false;
    ++data_segments_dropped_;
    m_data_dropped_.add();
    return true;
}

void Cloud::block_domain(const std::string& name) {
    auto parsed = dns::DomainName::parse(name);
    if (parsed) blocklist_.push_back(std::move(parsed).value());
}

bool Cloud::is_blocked(const dns::DomainName& name) const {
    for (const auto& blocked : blocklist_) {
        if (name.is_within(blocked)) return true;
    }
    return false;
}

bool Cloud::is_dns_server(net::Ipv4Address address) const noexcept {
    if (address == dns_ip_) return true;
    for (const auto extra : extra_dns_ips_) {
        if (extra == address) return true;
    }
    return false;
}

void Cloud::handle_dns(AccessPoint& ap, const net::ParsedPacket& query_packet,
                       net::Ipv4Address server_ip) {
    auto query = dns::DnsMessage::decode(query_packet.payload);
    if (!query || query.value().is_response) return;
    // A scheduled DNS-server failure window silences the *primary* resolver
    // only; fallback resolvers keep answering, so the client's failover path
    // is what decides whether resolution survives the window.
    if (impairment_ != nullptr && server_ip == dns_ip_ &&
        impairment_->dns_down(simulator_.now())) {
        m_dns_dropped_.add();
        return;
    }
    if (dns_drop_rate_ > 0.0 && rng_.chance(dns_drop_rate_)) {  // lost query
        m_dns_dropped_.add();
        return;
    }

    dns::DnsMessage response;
    if (!query.value().questions.empty() && is_blocked(query.value().questions.front().name)) {
        ++blocked_queries_;
        m_dns_blocked_.add();
        response = make_response(query.value(), {}, dns::ResponseCode::kNxDomain);
    } else {
        response = zone_.answer(query.value());
    }
    m_dns_answered_.add();
    const Bytes wire = response.encode();

    // Response travels back: resolver -> AP (path latency) -> station (Wi-Fi).
    const net::Endpoint server{server_ip, dns::kDnsPort};
    const net::Endpoint client{query_packet.ip->source, query_packet.udp->source_port};
    const SimTime path = sample_path_latency(server_ip);
    simulator_.after(path, [&ap, server, client, wire]() {
        // Downlink frames carry the AP's MAC as source, the station's as
        // destination — exactly what a Wi-Fi capture at the AP records.
        const net::FrameBuilder builder(ap.mac(), ap.station_mac());
        ap.deliver_to_station(builder.udp(SimTime{}, server, client, wire));
    });
}

}  // namespace tvacr::sim
