#include "analysis/stream.hpp"

#include <algorithm>

#include "net/fast_parse.hpp"
#include "net/pcap.hpp"

namespace tvacr::analysis {

DecodedRecord decode_record(BytesView frame, SimTime timestamp) {
    const net::FrameSummary summary = net::summarize_frame(frame);
    DecodedRecord record;
    record.timestamp = timestamp;
    record.frame_bytes = static_cast<std::uint32_t>(frame.size());
    record.parseable = summary.attributable;
    if (summary.attributable) {
        record.source = summary.source;
        record.destination = summary.destination;
        record.dns_payload.assign(summary.dns_payload.begin(), summary.dns_payload.end());
    }
    return record;
}

StreamingCaptureAnalyzer::StreamingCaptureAnalyzer(net::Ipv4Address device_ip,
                                                   StreamOptions /*options*/)
    : device_ip_(device_ip) {}

DomainStats& StreamingCaptureAnalyzer::bind(const std::string& domain, net::Ipv4Address remote) {
    DomainStats& stats = domains_[domain];
    stats.domain = domain;
    if (std::find(stats.addresses.begin(), stats.addresses.end(), remote) ==
        stats.addresses.end()) {
        stats.addresses.push_back(remote);
    }
    return stats;
}

void StreamingCaptureAnalyzer::account(SimTime timestamp, std::uint32_t frame_bytes, bool parseable,
                                       net::Ipv4Address source, net::Ipv4Address destination,
                                       BytesView dns_payload) {
    ++packets_total_;
    if (!parseable) {
        ++unparseable_;
        return;
    }
    if (!dns_payload.empty()) dns_.ingest_payload(dns_payload, timestamp);

    const bool up = source == device_ip_;
    const bool down = destination == device_ip_;
    if (!up && !down) return;  // not the device's traffic (should not happen)
    const net::Ipv4Address remote = up ? destination : source;

    // A mapping is permanent once born (the first one wins), so a resolved
    // route never needs DnsMap again; an unresolved one asks on every
    // packet, since a DNS answer may have arrived since.
    Route& route = routes_[remote];
    DomainStats* stats = route.resolved;
    if (stats == nullptr) {
        if (const std::string* domain = dns_.mapping_of(remote)) {
            stats = route.resolved = &bind(*domain, remote);
        } else {
            if (route.unresolved == nullptr) {
                route.unresolved = &bind("unresolved:" + remote.to_string(), remote);
            }
            stats = route.unresolved;
        }
    }
    if (stats->packets == 0) stats->first_seen = timestamp;
    stats->packets += 1;
    if (up) {
        stats->bytes_up += frame_bytes;
    } else {
        stats->bytes_down += frame_bytes;
    }
    stats->last_seen = timestamp;
    stats->events.push_back(PacketEvent{timestamp, frame_bytes, up});
}

void StreamingCaptureAnalyzer::ingest(BytesView frame, SimTime timestamp) {
    // summarize_frame replicates parse_packet_view's accept/reject decisions
    // exactly (see net/fast_parse.hpp); `dns_payload` borrows the frame.
    const net::FrameSummary summary = net::summarize_frame(frame);
    account(timestamp, static_cast<std::uint32_t>(frame.size()), summary.attributable,
            summary.source, summary.destination, summary.dns_payload);
}

void StreamingCaptureAnalyzer::ingest(const DecodedRecord& record) {
    account(record.timestamp, record.frame_bytes, record.parseable, record.source,
            record.destination, record.dns_payload);
}

CaptureAnalyzer StreamingCaptureAnalyzer::finish() {
    CaptureAnalyzer analyzer(device_ip_, std::move(dns_), std::move(domains_), packets_total_,
                             unparseable_);
    routes_.clear();
    domains_.clear();
    dns_ = DnsMap{};
    packets_total_ = 0;
    unparseable_ = 0;
    return analyzer;
}

CaptureAnalyzer StreamingCaptureAnalyzer::snapshot() const {
    return CaptureAnalyzer(device_ip_, dns_, domains_, packets_total_, unparseable_);
}

Result<CaptureAnalyzer> analyze_pcap_stream(const std::string& path, net::Ipv4Address device_ip,
                                            StreamOptions options,
                                            std::uint64_t* torn_tail_bytes) {
    auto reader = net::PcapReader::open(path);
    if (!reader) return reader.error();
    StreamingCaptureAnalyzer analyzer(device_ip, options);
    while (true) {
        auto record = reader.value().next();
        if (!record) return record.error();
        if (!record.value().has_value()) break;
        analyzer.ingest(record.value()->frame, record.value()->timestamp);
    }
    if (torn_tail_bytes != nullptr) *torn_tail_bytes = reader.value().torn_tail_bytes();
    return analyzer.finish();
}

CaptureAnalyzer analyze_packets(const std::vector<net::Packet>& packets,
                                net::Ipv4Address device_ip, StreamOptions options) {
    StreamingCaptureAnalyzer analyzer(device_ip, options);
    for (const auto& packet : packets) analyzer.ingest(packet);
    return analyzer.finish();
}

}  // namespace tvacr::analysis
