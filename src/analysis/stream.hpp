// Streaming capture analysis: the one attribution engine. Every tool, the
// gateway, replay and the campaign's capture tap feed it, and it produces
// the CaptureAnalyzer result. Packets arrive incrementally (pair it with
// net::PcapReader so whole captures never sit in RAM) through a zero-copy
// frame summary, or as DecodedRecords already reduced to that summary.
//
// Each record is attributed as it is ingested, in capture order: DNS is
// harvested first, then the packet goes to its remote's first mapping, or
// to "unresolved:<ip>" while there is none yet. A per-remote route cache
// binds each remote to its domain slot once per resolved state, so a
// resolved remote costs one cache lookup per packet. A snapshot therefore
// costs a copy of what was attributed so far, never a replay of the
// capture. A serial parse-every-layer engine lives in tests/oracle/ as the
// comparand of the byte-identity tests and benches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/traffic.hpp"
#include "common/thread_pool.hpp"
#include "net/packet.hpp"

namespace tvacr::analysis {

/// Accepted for compatibility and ignored: attribution is one serial pass
/// in capture order, and the result never depended on either field. It
/// stays while the benchmark worker (acrbench/worker.cpp) still sets it.
struct StreamOptions {
    std::size_t shards = 0;
    common::ThreadPool* pool = nullptr;
};

/// A frame already reduced to what ingest() extracts from it: the per-record
/// content of a .tvcr event stream and of the gateway's ring. Replaying
/// DecodedRecords through the analyzer is byte-identical to ingesting the
/// frames they were decoded from — parse decisions were made at record time
/// and stored, not re-derived. The DNS payload is owned, so a record
/// outlives the buffer it was decoded from.
struct DecodedRecord {
    SimTime timestamp;
    std::uint32_t frame_bytes = 0;
    bool parseable = false;  // decoded as Ethernet/IPv4 at record time
    net::Ipv4Address source;
    net::Ipv4Address destination;
    Bytes dns_payload;  // UDP payload iff sourced from the DNS port
};

/// The one frame-to-record step (net::summarize_frame's verdict, with the
/// DNS payload copied out of the frame): what TvcrWriter stores and what
/// the gateway's pcap source offers to its ring.
[[nodiscard]] DecodedRecord decode_record(BytesView frame, SimTime timestamp);

class StreamingCaptureAnalyzer {
  public:
    explicit StreamingCaptureAnalyzer(net::Ipv4Address device_ip, StreamOptions options = {});

    // The route cache points into domains_: moving keeps those nodes alive,
    // a copy would not.
    StreamingCaptureAnalyzer(const StreamingCaptureAnalyzer&) = delete;
    StreamingCaptureAnalyzer& operator=(const StreamingCaptureAnalyzer&) = delete;
    StreamingCaptureAnalyzer(StreamingCaptureAnalyzer&&) = default;
    StreamingCaptureAnalyzer& operator=(StreamingCaptureAnalyzer&&) = default;

    /// Ingests one captured frame (order must be capture order). The frame
    /// bytes, DNS payload included, are only borrowed for the duration of
    /// the call: no record is built.
    void ingest(BytesView frame, SimTime timestamp);
    void ingest(const net::Packet& packet) { ingest(packet.data, packet.timestamp); }

    /// Ingests one pre-decoded record (replay and gateway path): the same
    /// accounting step as the frame overload, minus the parse.
    void ingest(const DecodedRecord& record);

    /// Returns the assembled analyzer and leaves this one empty.
    [[nodiscard]] CaptureAnalyzer finish();

    /// The analyzer for everything ingested so far, as a copy: snapshot() at
    /// position N is byte-identical to finish() on an analyzer fed the same
    /// first N records (the gateway's live SNAPSHOT verb and its final
    /// report both rest on this). Ingest may continue afterwards.
    [[nodiscard]] CaptureAnalyzer snapshot() const;

  private:
    /// A remote's domain slots: `resolved` once its mapping is born,
    /// `unresolved` for its traffic before that.
    struct Route {
        DomainStats* resolved = nullptr;
        DomainStats* unresolved = nullptr;
    };

    /// The step both ingest overloads share: counts the packet, harvests
    /// `dns_payload`, then attributes a parseable packet.
    void account(SimTime timestamp, std::uint32_t frame_bytes, bool parseable,
                 net::Ipv4Address source, net::Ipv4Address destination, BytesView dns_payload);
    /// The domain's stats with `remote` among its addresses.
    DomainStats& bind(const std::string& domain, net::Ipv4Address remote);

    net::Ipv4Address device_ip_;
    DnsMap dns_;
    std::map<std::string, DomainStats> domains_;
    std::unordered_map<net::Ipv4Address, Route> routes_;
    std::uint64_t packets_total_ = 0;
    std::uint64_t unparseable_ = 0;
};

/// Streams a pcap file through the analyzer. The capture is never fully
/// materialized; peak memory is the reader's buffer plus the attributed
/// per-domain events. A cut-off final record is not analyzed; when
/// `torn_tail_bytes` is set it receives that record's byte count (0 for a
/// clean end, see net::PcapReader::torn_tail_bytes).
[[nodiscard]] Result<CaptureAnalyzer> analyze_pcap_stream(
    const std::string& path, net::Ipv4Address device_ip, StreamOptions options = {},
    std::uint64_t* torn_tail_bytes = nullptr);

/// Runs the streaming engine over an in-memory capture.
[[nodiscard]] CaptureAnalyzer analyze_packets(const std::vector<net::Packet>& packets,
                                              net::Ipv4Address device_ip,
                                              StreamOptions options = {});

}  // namespace tvacr::analysis
