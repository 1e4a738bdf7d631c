// Streaming, flow-sharded capture analysis.
//
// The serial CaptureAnalyzer walks a fully materialized capture packet by
// packet. This engine produces the *identical* analyzer — byte-for-byte on
// every report and JSON output — while (a) consuming packets incrementally
// (pair it with net::PcapReader so whole captures never sit in RAM) and
// (b) parallelizing per-domain attribution across shards partitioned by
// remote endpoint.
//
// How identity with the serial path is preserved:
//   - Pass 1 (capture order, caller's thread): zero-copy parse, DNS
//     harvesting, and direction/remote extraction. Each attributable packet
//     is reduced to a compact PacketMeta and bucketed by a deterministic
//     hash of its remote address. DnsMap records the capture index at which
//     every IP->domain mapping was born.
//   - Pass 2 (one task per shard, optionally on a ThreadPool): each shard
//     attributes its packets using mapping_of() gated on birth_index, which
//     replays the serial path's "was the mapping known yet?" decision even
//     though shards run out of capture order.
//   - Merge (caller's thread): per-domain partials from all shards are
//     k-way merged on global packet index, restoring capture order for
//     events, address first-seen order, and first/last-seen timestamps.
// The result is invariant across shard counts and worker counts; the golden
// capture tests enforce that byte-identity.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/traffic.hpp"
#include "common/thread_pool.hpp"
#include "net/packet.hpp"

namespace tvacr::analysis {

struct StreamOptions {
    /// Number of remote-endpoint partitions. 0 picks the pool's worker
    /// count (or 1 without a pool). Any value yields identical results.
    std::size_t shards = 0;
    /// Pool for the per-shard attribution tasks; nullptr runs them inline.
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

class StreamingCaptureAnalyzer {
  public:
    explicit StreamingCaptureAnalyzer(net::Ipv4Address device_ip, StreamOptions options = {});

    /// Ingests one captured frame (order must be capture order). The frame
    /// bytes are only borrowed for the duration of the call.
    void ingest(BytesView frame, SimTime timestamp);
    void ingest(const net::Packet& packet) { ingest(packet.data, packet.timestamp); }

    /// Ingests one pre-decoded record (replay path). Mirrors the frame
    /// overload exactly: same unparseable accounting, DNS harvesting, and
    /// shard bucketing, minus the parse.
    void ingest(const DecodedRecord& record);

    /// Runs the sharded attribution + deterministic merge and returns the
    /// assembled analyzer. Call once; the builder is drained by the call.
    [[nodiscard]] CaptureAnalyzer finish();

    /// Incremental snapshot: the analyzer for everything ingested so far,
    /// without draining the builder. snapshot() at position N is
    /// byte-identical to finish() on a builder fed the same first N records
    /// (same attribution + merge code path; the gateway's live SNAPSHOT verb
    /// and its final report both rest on this). Costs a pass-2 run plus a
    /// DnsMap copy; ingest may continue afterwards.
    [[nodiscard]] CaptureAnalyzer snapshot() const;

    [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_total_; }
    [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  private:
    /// Everything pass 2 needs about the shard's packets, laid out as
    /// structure-of-arrays: pass 1 appends four scalar columns (no struct
    /// padding — ~21 bytes/packet instead of 32), and pass 2's hot loop
    /// walks the remote column with the other columns only touched on a
    /// route hit. Column i across all five vectors describes one packet;
    /// capture order is preserved, so `index` is strictly increasing.
    struct PacketMetaColumns {
        std::vector<std::uint64_t> index;        // capture position, globally unique
        std::vector<std::int64_t> timestamp_us;  // SimTime::as_micros()
        std::vector<std::uint32_t> frame_bytes;
        std::vector<std::uint32_t> remote;  // Ipv4Address::value()
        std::vector<std::uint8_t> device_to_server;

        [[nodiscard]] std::size_t size() const noexcept { return index.size(); }
        void append(std::uint64_t idx, SimTime ts, std::uint32_t bytes, net::Ipv4Address rem,
                    bool up) {
            index.push_back(idx);
            timestamp_us.push_back(ts.as_micros());
            frame_bytes.push_back(bytes);
            remote.push_back(rem.value());
            device_to_server.push_back(up ? 1 : 0);
        }
        void clear() noexcept {
            index.clear();
            timestamp_us.clear();
            frame_bytes.clear();
            remote.clear();
            device_to_server.clear();
        }
    };

    /// Per-shard, per-domain accumulation; merged across shards in finish().
    struct PartialDomain {
        std::vector<std::pair<net::Ipv4Address, std::uint64_t>> addresses;  // (addr, first idx)
        std::uint64_t packets = 0;
        std::uint64_t bytes_up = 0;
        std::uint64_t bytes_down = 0;
        std::vector<PacketEvent> events;          // capture order within the shard
        std::vector<std::uint64_t> event_indices;  // parallel to events
    };
    using ShardPartial = std::map<std::string, PartialDomain>;

    /// Shared pass-1 tail: buckets one attributable packet by its remote.
    void bucket_packet(std::uint64_t index, SimTime timestamp, std::uint32_t frame_bytes,
                       net::Ipv4Address source, net::Ipv4Address destination);

    [[nodiscard]] ShardPartial attribute_shard(const PacketMetaColumns& metas) const;

    /// Pass 2 + deterministic k-way merge over the current shard contents.
    /// Const: shared verbatim by snapshot() and finish().
    [[nodiscard]] std::map<std::string, DomainStats> merge_attribution() const;

    net::Ipv4Address device_ip_;
    common::ThreadPool* pool_ = nullptr;
    DnsMap dns_;
    std::vector<PacketMetaColumns> shards_;
    std::uint64_t packets_total_ = 0;
    std::uint64_t unparseable_ = 0;
};

/// Streams a pcap file through the sharded analyzer. The capture is never
/// fully materialized; peak memory is the reader's buffer plus the compact
/// per-packet metadata.
[[nodiscard]] Result<CaptureAnalyzer> analyze_pcap_stream(const std::string& path,
                                                          net::Ipv4Address device_ip,
                                                          StreamOptions options = {});

/// Runs the sharded engine over an in-memory capture (same result as the
/// serial CaptureAnalyzer::ingest_all, proven by the byte-identity tests).
[[nodiscard]] CaptureAnalyzer analyze_packets(const std::vector<net::Packet>& packets,
                                              net::Ipv4Address device_ip,
                                              StreamOptions options = {});

}  // namespace tvacr::analysis
