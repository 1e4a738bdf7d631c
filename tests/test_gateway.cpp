// Tests for the resident ingest gateway: ring accounting (the conservation
// invariant offered == accepted + dropped, hammered over randomized load
// patterns), the determinism contract (snapshots at worker counts 1/4/8 are
// byte-identical to the batch analyzer; under forced drops they equal the
// batch run over the accepted-record subset the ledger identifies), the
// tailing pcap/.tvcr source (arbitrary chunk boundaries, torn tails
// accounted as truncated drops, a torn file header failing as the batch
// reader does), agreement of every pcap reader on damaged input, and the
// control protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/traffic.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dns/message.hpp"
#include "gateway/control.hpp"
#include "gateway/gateway.hpp"
#include "gateway/source.hpp"
#include "net/fast_parse.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "replay/replay.hpp"
#include "replay/tvcr.hpp"

namespace tvacr::gateway {
namespace {

using net::Ipv4Address;

const Ipv4Address kDevice(192, 168, 4, 23);
const Ipv4Address kResolver(9, 9, 9, 9);

// ----------------------------------------------------------------- fixture

net::Packet dns_response_packet(const std::string& name, Ipv4Address address, SimTime t) {
    const auto domain = dns::DomainName::parse(name).value();
    const auto query = make_query(7, domain, dns::RecordType::kA);
    const auto response = make_response(query, {dns::ResourceRecord::a(domain, address)},
                                        dns::ResponseCode::kNoError);
    const net::FrameBuilder builder(net::MacAddress::local(2), net::MacAddress::local(1));
    return builder.udp(t, net::Endpoint{kResolver, dns::kDnsPort}, net::Endpoint{kDevice, 40000},
                       response.encode());
}

net::Packet tcp_packet(Ipv4Address src, Ipv4Address dst, SimTime t, std::size_t payload_size) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const std::uint16_t src_port = src == kDevice ? 50000 : 443;
    const std::uint16_t dst_port = dst == kDevice ? 50000 : 443;
    return builder.tcp(t, net::Endpoint{src, src_port}, net::Endpoint{dst, dst_port}, 1, 1,
                       net::TcpFlags::kAck, Bytes(payload_size, 0xEE));
}

/// Same corner coverage as the replay suite: pre-birth traffic, mid-capture
/// DNS births, a second address for a domain, foreign flows, an unparseable
/// frame.
std::vector<net::Packet> gateway_capture() {
    const Ipv4Address acr(23, 0, 1, 10);
    const Ipv4Address ads(23, 0, 2, 20);
    const Ipv4Address ads2(23, 0, 2, 21);
    std::vector<net::Packet> capture;
    capture.push_back(tcp_packet(kDevice, acr, SimTime::millis(5), 400));  // pre-birth
    capture.push_back(dns_response_packet("acr-eu-prd.samsungcloud.tv", acr, SimTime::millis(10)));
    capture.push_back(dns_response_packet("ads.example.com", ads, SimTime::millis(20)));
    capture.push_back(net::Packet{SimTime::millis(25), Bytes{0xDE, 0xAD}});  // unparseable
    for (int i = 0; i < 240; ++i) {
        const SimTime t = SimTime::millis(30 + i * 10);
        switch (i % 4) {
            case 0: capture.push_back(tcp_packet(kDevice, acr, t, 100 + i)); break;
            case 1: capture.push_back(tcp_packet(acr, kDevice, t, 700)); break;
            case 2: capture.push_back(tcp_packet(kDevice, ads, t, 64)); break;
            default:
                capture.push_back(
                    tcp_packet(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), t, 32));
        }
        if (i == 120) {
            capture.push_back(dns_response_packet("ads.example.com", ads2, t));
            capture.push_back(tcp_packet(ads2, kDevice, t + SimTime::millis(1), 900));
        }
    }
    return capture;
}

std::string batch_report(const std::vector<net::Packet>& packets) {
    return replay::canonical_report(analysis::analyze_packets(packets, kDevice, {}));
}

/// In-memory byte feed delivering a fixed buffer in caller-chosen chunks so
/// tests can hit every chunk boundary the incremental parsers must survive.
class MemoryFeed : public ByteFeed {
  public:
    explicit MemoryFeed(Bytes data) : data_(std::move(data)) {}

    Result<SourceStatus> read_some(Bytes& out, std::size_t max_bytes) override {
        out.clear();
        if (offset_ >= data_.size()) return SourceStatus::kEnd;
        const std::size_t take = std::min(max_bytes, data_.size() - offset_);
        out.assign(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
                   data_.begin() + static_cast<std::ptrdiff_t>(offset_ + take));
        offset_ += take;
        return SourceStatus::kProgress;
    }

  private:
    Bytes data_;
    std::size_t offset_ = 0;
};

/// Streams `wire` through a gateway in chunks of `chunk` bytes, draining
/// `drain_batch` records after each poll, then finalizes and snapshots.
std::string run_stream(const Bytes& wire, Gateway& gateway, std::size_t chunk,
                       std::size_t drain_batch) {
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    while (true) {
        const auto status = source.poll(gateway, chunk);
        if (!status.ok()) {
            ADD_FAILURE() << status.error().message;
            break;
        }
        gateway.drain(drain_batch);
        EXPECT_TRUE(gateway.conservation_ok());
        if (status.value() == SourceStatus::kEnd) break;
    }
    EXPECT_TRUE(source.finalize(gateway).ok());
    gateway.drain_all();
    EXPECT_TRUE(gateway.conservation_ok());
    return replay::canonical_report(gateway.snapshot());
}

// ------------------------------------------------------- determinism gate

TEST(GatewayDeterminism, PcapStreamMatchesBatchAtEveryWorkerCount) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    const std::string reference = batch_report(capture);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        common::ThreadPool pool(workers);
        GatewayOptions options;
        options.device_ip = kDevice;
        options.workers = workers;
        options.pool = workers > 1 ? &pool : nullptr;
        Gateway gateway(options);
        // Awkward chunk size on purpose: records tear across feeds.
        EXPECT_EQ(run_stream(wire, gateway, 37, 16), reference) << "workers=" << workers;
        EXPECT_EQ(gateway.offered(), capture.size());
        EXPECT_EQ(gateway.dropped(), 0U);
        EXPECT_TRUE(gateway.ledger_text().empty());
    }
}

TEST(GatewayDeterminism, TvcrStreamMatchesBatchAndSeesWriterFinish) {
    const auto capture = gateway_capture();
    replay::TvcrOptions tvcr_options;
    tvcr_options.block_records = 32;  // several blocks
    const Bytes wire = replay::to_tvcr_bytes(capture, tvcr_options);

    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    EXPECT_EQ(run_stream(wire, gateway, 53, 8), batch_report(capture));
    EXPECT_EQ(gateway.offered(), capture.size());
    EXPECT_EQ(gateway.dropped(), 0U);
}

TEST(GatewayDeterminism, ChunkBoundariesNeverChangeTheSnapshot) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    const std::string reference = batch_report(capture);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096},
                                    wire.size()}) {
        GatewayOptions options;
        options.device_ip = kDevice;
        Gateway gateway(options);
        EXPECT_EQ(run_stream(wire, gateway, chunk, 1000), reference) << "chunk=" << chunk;
    }
}

TEST(GatewayDeterminism, EverySnapshotEqualsBatchOverTheDrainedPrefix) {
    // The analyzer attributes each record as it drains, so a snapshot taken
    // after any record must equal the batch analyzer over exactly the
    // records drained so far. The fixture's ACR address sends before and
    // after its DNS answer, so the prefixes cross that binding.
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    std::vector<net::Packet> prefix;
    bool ended = false;
    while (!ended) {
        const auto status = source.poll(gateway, 512);
        ASSERT_TRUE(status.ok());
        ended = status.value() == SourceStatus::kEnd;
        while (gateway.drain(1) == 1) {
            prefix.push_back(capture[prefix.size()]);
            ASSERT_EQ(replay::canonical_report(gateway.snapshot()), batch_report(prefix))
                << "after " << prefix.size() << " records";
        }
    }
    ASSERT_TRUE(source.finalize(gateway).ok());
    EXPECT_EQ(prefix.size(), capture.size());
    const std::string final_report = replay::canonical_report(gateway.snapshot());
    EXPECT_NE(final_report.find("unresolved:23.0.1.10 "), std::string::npos);
    EXPECT_NE(final_report.find("acr-eu-prd.samsungcloud.tv "), std::string::npos);
}

// ------------------------------------------------------- forced backpressure

TEST(GatewayBackpressure, SnapshotEqualsBatchOverAcceptedSubset) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);

    GatewayOptions options;
    options.device_ip = kDevice;
    options.ring_capacity = 8;
    Gateway gateway(options);
    // One huge poll with no drain in between forces ring_full drops.
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    while (true) {
        const auto status = source.poll(gateway, wire.size());
        ASSERT_TRUE(status.ok());
        if (status.value() == SourceStatus::kEnd) break;
    }
    ASSERT_TRUE(source.finalize(gateway).ok());
    gateway.drain_all();
    ASSERT_TRUE(gateway.conservation_ok());
    ASSERT_GT(gateway.dropped_ring_full(), 0U);
    EXPECT_EQ(gateway.offered(), capture.size());

    // Rebuild the accepted subset from the ledger and batch-analyze it: the
    // gateway snapshot must match byte-for-byte.
    std::vector<bool> dropped(capture.size(), false);
    for (const DropRun& run : gateway.drop_ledger()) {
        for (std::uint64_t i = 0; i < run.count; ++i) dropped[run.first_offer + i] = true;
    }
    std::vector<net::Packet> accepted;
    for (std::size_t i = 0; i < capture.size(); ++i) {
        if (!dropped[i]) accepted.push_back(capture[i]);
    }
    EXPECT_EQ(accepted.size(), gateway.accepted());
    EXPECT_EQ(replay::canonical_report(gateway.snapshot()), batch_report(accepted));

    // The ledger is run-length encoded, newline-terminated, and names only
    // ring_full drops here.
    const std::string ledger = gateway.ledger_text();
    EXPECT_NE(ledger.find("ring_full"), std::string::npos);
    EXPECT_EQ(ledger.find("truncated"), std::string::npos);
}

TEST(GatewayBackpressure, ConservationHoldsOverRandomizedLoadPatterns) {
    const auto capture = gateway_capture();
    Rng rng(0xC0FFEE);
    for (int pattern = 0; pattern < 200; ++pattern) {
        GatewayOptions options;
        options.device_ip = kDevice;
        options.ring_capacity = static_cast<std::size_t>(rng.uniform(1, 32));
        Gateway gateway(options);
        std::size_t next = 0;
        while (next < capture.size()) {
            const auto burst = static_cast<std::size_t>(rng.uniform(1, 48));
            for (std::size_t i = 0; i < burst && next < capture.size(); ++i, ++next) {
                analysis::DecodedRecord record;
                record.timestamp = capture[next].timestamp;
                record.frame_bytes = static_cast<std::uint32_t>(capture[next].data.size());
                const auto view = net::summarize_frame(capture[next].data);
                record.parseable = view.attributable;
                record.source = view.source;
                record.destination = view.destination;
                record.dns_payload.assign(view.dns_payload.begin(), view.dns_payload.end());
                gateway.offer(std::move(record));
            }
            if (rng.chance(0.2)) gateway.note_truncated(rng.uniform(1, 3));
            gateway.drain(static_cast<std::size_t>(rng.uniform(0, 24)));
            ASSERT_TRUE(gateway.conservation_ok()) << "pattern " << pattern;
        }
        gateway.drain_all();
        ASSERT_TRUE(gateway.conservation_ok()) << "pattern " << pattern;
        ASSERT_EQ(gateway.offered(), gateway.accepted() + gateway.dropped());
        ASSERT_EQ(gateway.ring_occupancy(), 0U);
    }
}

TEST(GatewayBackpressure, GrownRingDropsLikeAFullRing) {
    // The ring's slots grow with its occupancy. Offer/drain bursts make it
    // grow while wrapped and then offer past its small capacity: it must
    // shed exactly the offers a ring allocated in full sheds (accept while
    // fewer than `capacity` records wait), ledger them the same way and
    // drain in offer order.
    const auto capture = gateway_capture();
    constexpr std::size_t kCapacity = 6;
    GatewayOptions options;
    options.device_ip = kDevice;
    options.ring_capacity = kCapacity;
    Gateway gateway(options);

    std::size_t waiting = 0;  // the full ring's occupancy
    std::vector<DropRun> ledger;
    std::vector<net::Packet> accepted;
    // {records offered, records drained} per step, cycled.
    constexpr std::size_t kSteps[][2] = {{3, 2}, {4, 0}, {3, 4}, {7, 1}, {2, 6}, {5, 3}};
    std::size_t next = 0;
    for (std::size_t step = 0; next < capture.size(); ++step) {
        const std::size_t burst = kSteps[step % std::size(kSteps)][0];
        const std::size_t take = kSteps[step % std::size(kSteps)][1];
        for (std::size_t i = 0; i < burst && next < capture.size(); ++i, ++next) {
            const auto view = net::summarize_frame(capture[next].data);
            analysis::DecodedRecord record;
            record.timestamp = capture[next].timestamp;
            record.frame_bytes = static_cast<std::uint32_t>(capture[next].data.size());
            record.parseable = view.attributable;
            record.source = view.source;
            record.destination = view.destination;
            record.dns_payload.assign(view.dns_payload.begin(), view.dns_payload.end());
            const bool expect_accept = waiting < kCapacity;
            ASSERT_EQ(gateway.offer(std::move(record)), expect_accept) << "offer " << next;
            if (expect_accept) {
                ++waiting;
                accepted.push_back(capture[next]);
            } else if (!ledger.empty() &&
                       ledger.back().first_offer + ledger.back().count == next) {
                ++ledger.back().count;
            } else {
                ledger.push_back(DropRun{next, 1, DropReason::kRingFull});
            }
        }
        const std::size_t drained = gateway.drain(take);
        EXPECT_EQ(drained, std::min(take, waiting));
        waiting -= drained;
        ASSERT_EQ(gateway.ring_occupancy(), waiting);
        ASSERT_EQ(gateway.ring_capacity(), kCapacity);
        ASSERT_TRUE(gateway.conservation_ok());
    }
    gateway.drain_all();

    std::string expected_ledger;
    std::uint64_t expected_drops = 0;
    for (const DropRun& run : ledger) {
        expected_ledger += "drop " + std::to_string(run.first_offer) + " " +
                           std::to_string(run.count) + " ring_full\n";
        expected_drops += run.count;
    }
    ASSERT_GT(expected_drops, 0U);
    EXPECT_EQ(gateway.dropped_ring_full(), expected_drops);
    EXPECT_EQ(gateway.ledger_text(), expected_ledger);
    EXPECT_EQ(gateway.metrics().gauge_value("gateway.ring_capacity"),
              static_cast<double>(kCapacity));

    // Drain order is offer order: every domain's events match the batch
    // analyzer's over the accepted subset, one by one.
    const auto snapshot = gateway.snapshot();
    const auto batch = analysis::analyze_packets(accepted, kDevice);
    EXPECT_EQ(replay::canonical_report(snapshot), replay::canonical_report(batch));
    for (const analysis::DomainStats* stats : batch.domains_by_bytes()) {
        const analysis::DomainStats* streamed = snapshot.find(stats->domain);
        ASSERT_NE(streamed, nullptr) << stats->domain;
        ASSERT_EQ(streamed->events.size(), stats->events.size()) << stats->domain;
        for (std::size_t i = 0; i < stats->events.size(); ++i) {
            EXPECT_EQ(streamed->events[i].timestamp, stats->events[i].timestamp);
            EXPECT_EQ(streamed->events[i].frame_bytes, stats->events[i].frame_bytes);
        }
    }
}

TEST(GatewayBackpressure, GracefulShutdownUnderLoadKeepsTheSnapshotExact) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    // Feed only part of the stream, then "shut down": finalize, drain, and
    // snapshot. The result must equal the batch run over exactly the
    // records offered before the cut — nothing silently lost, nothing
    // invented.
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    // Pull a bounded number of small polls, as if SIGTERM arrived mid-file.
    for (int polls = 0; polls < 40; ++polls) {
        const auto status = source.poll(gateway, 256);
        ASSERT_TRUE(status.ok());
        if (status.value() == SourceStatus::kEnd) break;
        gateway.drain(4);
    }
    ASSERT_TRUE(source.finalize(gateway).ok());
    gateway.drain_all();
    ASSERT_TRUE(gateway.conservation_ok());
    const std::uint64_t analyzed = gateway.drained();
    std::vector<net::Packet> prefix(capture.begin(),
                                    capture.begin() + static_cast<std::ptrdiff_t>(analyzed));
    EXPECT_EQ(replay::canonical_report(gateway.snapshot()), batch_report(prefix));
}

// ------------------------------------------------------- truncated tails

TEST(GatewaySource, TornPcapTailIsAccountedAsOneTruncatedDrop) {
    const auto capture = gateway_capture();
    Bytes wire = net::to_pcap_bytes(capture);
    wire.resize(wire.size() - 7);  // tear the last record

    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    (void)run_stream(wire, gateway, 4096, 1000);
    EXPECT_EQ(gateway.dropped_truncated(), 1U);
    EXPECT_EQ(gateway.offered(), capture.size());
    EXPECT_TRUE(gateway.conservation_ok());
    EXPECT_NE(gateway.ledger_text().find("truncated"), std::string::npos);

    // And the analysis over the surviving records still equals batch over
    // the complete-record prefix (batch pcap readers ignore the torn tail).
    std::vector<net::Packet> prefix(capture.begin(), capture.end() - 1);
    EXPECT_EQ(replay::canonical_report(gateway.snapshot()), batch_report(prefix));
}

TEST(GatewaySource, TornTvcrBlockAccountsItsDeclaredRecords) {
    const auto capture = gateway_capture();
    replay::TvcrOptions tvcr_options;
    tvcr_options.block_records = 32;
    Bytes wire = replay::to_tvcr_bytes(capture, tvcr_options);

    // Cut mid-payload inside the last block before the index: find the
    // final block by scanning forward from the header.
    std::size_t offset = replay::kTvcrHeaderLen;
    std::size_t last_block = 0;
    while (offset + replay::kTvcrBlockHeaderLen < wire.size()) {
        const auto info = replay::parse_block_header(
            BytesView(wire.data() + offset, replay::kTvcrBlockHeaderLen));
        if (!info.ok()) break;  // reached the index
        last_block = offset;
        offset += replay::kTvcrBlockHeaderLen + info.value().compressed_len;
    }
    const auto last_info = replay::parse_block_header(
        BytesView(wire.data() + last_block, replay::kTvcrBlockHeaderLen));
    ASSERT_TRUE(last_info.ok());
    wire.resize(last_block + replay::kTvcrBlockHeaderLen + 3);  // torn payload

    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    (void)run_stream(wire, gateway, 4096, 1000);
    EXPECT_EQ(gateway.dropped_truncated(), last_info.value().records);
    EXPECT_TRUE(gateway.conservation_ok());
    EXPECT_EQ(gateway.drained() + last_info.value().records, capture.size());
}

TEST(GatewaySource, CleanTvcrFinishHasNoTruncationAndSignalsEnd) {
    const auto capture = gateway_capture();
    const Bytes wire = replay::to_tvcr_bytes(capture, {});
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    SourceStatus last = SourceStatus::kIdle;
    while (true) {
        const auto status = source.poll(gateway, 4096);
        ASSERT_TRUE(status.ok());
        last = status.value();
        if (last == SourceStatus::kEnd) break;
    }
    // The index magic, not feed EOF, is what ends a .tvcr stream.
    EXPECT_EQ(last, SourceStatus::kEnd);
    ASSERT_TRUE(source.finalize(gateway).ok());
    EXPECT_EQ(gateway.dropped_truncated(), 0U);
    EXPECT_EQ(gateway.offered(), capture.size());
}

TEST(GatewaySource, TvcrBlocksLargerThanAChunkSurviveCompaction) {
    // Incompressible frames kept in the .tvcr make every block larger than
    // a 16 KiB poll, so each block completes only after many polls and the
    // source buffer slides its unread tail down between blocks.
    const Ipv4Address acr(23, 0, 1, 10);
    std::vector<net::Packet> capture;
    capture.push_back(tcp_packet(kDevice, acr, SimTime::millis(5), 400));  // pre-birth
    capture.push_back(dns_response_packet("acr-eu-prd.samsungcloud.tv", acr, SimTime::millis(10)));
    Rng rng(0x5EED);
    constexpr std::size_t kPayload = 1000;
    for (int i = 0; i < 160; ++i) {
        const SimTime t = SimTime::millis(20 + i);
        net::Packet packet = i % 2 == 0 ? tcp_packet(kDevice, acr, t, kPayload)
                                        : tcp_packet(acr, kDevice, t, kPayload);
        for (std::size_t b = packet.data.size() - kPayload; b < packet.data.size(); ++b) {
            packet.data[b] = static_cast<std::uint8_t>(rng());
        }
        capture.push_back(std::move(packet));
    }
    replay::TvcrOptions tvcr_options;
    tvcr_options.keep_frames = true;
    tvcr_options.block_records = 40;
    const Bytes wire = replay::to_tvcr_bytes(capture, tvcr_options);

    std::size_t largest_block = 0;
    for (std::size_t offset = replay::kTvcrHeaderLen;
         offset + replay::kTvcrBlockHeaderLen < wire.size();) {
        const auto info = replay::parse_block_header(
            BytesView(wire.data() + offset, replay::kTvcrBlockHeaderLen));
        if (!info.ok()) break;  // reached the index
        largest_block = std::max<std::size_t>(largest_block, info.value().compressed_len);
        offset += replay::kTvcrBlockHeaderLen + info.value().compressed_len;
    }
    ASSERT_GT(largest_block, std::size_t{16 * 1024});

    const std::string reference = batch_report(capture);
    for (const std::size_t chunk : {std::size_t{7}, std::size_t{4096}, std::size_t{16384}}) {
        GatewayOptions options;
        options.device_ip = kDevice;
        Gateway gateway(options);
        EXPECT_EQ(run_stream(wire, gateway, chunk, 1000), reference) << "chunk=" << chunk;
        EXPECT_EQ(gateway.offered(), capture.size());
        EXPECT_EQ(gateway.dropped(), 0U);
    }
}

TEST(GatewaySource, GarbageMagicIsAStructuralError) {
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(Bytes{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}));
    const auto status = source.poll(gateway, 4096);
    EXPECT_FALSE(status.ok());
}

// ------------------------------------------- batch and gateway agreement

std::string write_temp(const std::string& name, const Bytes& bytes) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

/// One reader's verdict on a capture: the records it accepted and the
/// canonical report over them, or its error message.
struct Outcome {
    std::string error;
    std::uint64_t records = 0;
    std::string report;
    bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& outcome, std::ostream* out) {
    if (!outcome.error.empty()) {
        *out << "error \"" << outcome.error << "\"";
    } else {
        *out << outcome.records << " records";
    }
}

Outcome failed(const std::string& message) { return Outcome{message, 0, ""}; }

Outcome accepted(const std::vector<net::Packet>& packets) {
    return Outcome{"", packets.size(), batch_report(packets)};
}

Outcome from_bytes_outcome(const Bytes& wire) {
    auto packets = net::from_pcap_bytes(wire);
    if (!packets.ok()) return failed(packets.error().message);
    return accepted(packets.value());
}

Outcome reader_outcome(const std::string& path, net::PcapBackend backend) {
    auto reader = net::PcapReader::open(path, backend);
    if (!reader.ok()) return failed(reader.error().message);
    std::vector<net::Packet> packets;
    while (true) {
        auto record = reader.value().next();
        if (!record.ok()) return failed(record.error().message);
        if (!record.value().has_value()) break;
        const BytesView frame = record.value()->frame;
        packets.push_back(
            net::Packet{record.value()->timestamp, Bytes(frame.begin(), frame.end())});
    }
    return accepted(packets);
}

/// Streams `wire` through a fresh gateway in `chunk`-byte feeds; reports
/// the truncated drops through `truncated`.
Outcome gateway_outcome(const Bytes& wire, std::size_t chunk, std::uint64_t& truncated) {
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    while (true) {
        const auto status = source.poll(gateway, chunk);
        if (!status.ok()) return failed(status.error().message);
        if (status.value() == SourceStatus::kEnd) break;
    }
    if (auto finalized = source.finalize(gateway); !finalized.ok()) {
        return failed(finalized.error().message);
    }
    gateway.drain_all();
    truncated = gateway.dropped_truncated();
    return Outcome{"", gateway.accepted(), replay::canonical_report(gateway.snapshot())};
}

void poke_u16le(Bytes& bytes, std::size_t at, std::uint16_t value) {
    bytes[at] = static_cast<std::uint8_t>(value & 0xFF);
    bytes[at + 1] = static_cast<std::uint8_t>(value >> 8);
}

void poke_u32le(Bytes& bytes, std::size_t at, std::uint32_t value) {
    poke_u16le(bytes, at, static_cast<std::uint16_t>(value & 0xFFFF));
    poke_u16le(bytes, at + 2, static_cast<std::uint16_t>(value >> 16));
}

/// The same capture as written on a big-endian machine: every header field
/// byte-swapped, frames untouched.
Bytes swap_byte_order(Bytes wire) {
    const auto swap = [&wire](std::size_t at, std::size_t width) {
        std::reverse(wire.begin() + static_cast<std::ptrdiff_t>(at),
                     wire.begin() + static_cast<std::ptrdiff_t>(at + width));
    };
    for (const std::size_t at : {0, 8, 12, 16, 20}) swap(at, 4);
    swap(4, 2);
    swap(6, 2);
    std::size_t at = net::kPcapGlobalHeaderLen;
    while (at + net::kPcapRecordHeaderLen <= wire.size()) {
        const std::uint32_t incl_len = bytes::load_u32le(wire.data() + at + 8);
        for (std::size_t field = 0; field < 4; ++field) swap(at + 4 * field, 4);
        at += net::kPcapRecordHeaderLen + incl_len;
    }
    return wire;
}

TEST(DecoderAgreement, EveryPcapReaderGivesTheSameOutcomeOnDamagedInput) {
    auto capture = gateway_capture();
    capture.resize(40);  // keeps the byte-at-a-time runs short
    const Bytes clean = net::to_pcap_bytes(capture);
    const std::size_t last_record = net::kPcapRecordHeaderLen + capture.back().data.size();

    struct Damage {
        std::string name;
        Bytes wire;
        bool torn_tail = false;  // bytes left after the last complete record
    };
    std::vector<Damage> damages;
    damages.push_back({"clean", clean});
    damages.push_back({"swapped byte order", swap_byte_order(clean)});
    damages.push_back({"torn record header", clean, true});
    damages.back().wire.resize(clean.size() - last_record + 7);
    damages.push_back({"torn body", clean, true});
    damages.back().wire.resize(clean.size() - 7);
    damages.push_back({"incl_len above declared snaplen", clean});
    poke_u32le(damages.back().wire, 16, 64);
    damages.push_back({"snaplen 0", clean});
    poke_u32le(damages.back().wire, 16, 0);
    damages.push_back({"bad major version", clean});
    poke_u16le(damages.back().wire, 4, 3);
    damages.push_back({"bad link type", clean});
    poke_u32le(damages.back().wire, 20, 101);
    damages.push_back({"garbage magic", clean});
    damages.back().wire[0] ^= 0xFF;

    for (const Damage& damage : damages) {
        SCOPED_TRACE(damage.name);
        const Outcome expected = from_bytes_outcome(damage.wire);
        const std::string path = write_temp("tvacr_damage.pcap", damage.wire);
        EXPECT_EQ(reader_outcome(path, net::PcapBackend::kAuto), expected);
        EXPECT_EQ(reader_outcome(path, net::PcapBackend::kBuffered), expected);
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
            SCOPED_TRACE(chunk);
            std::uint64_t truncated = 0;
            EXPECT_EQ(gateway_outcome(damage.wire, chunk, truncated), expected);
            if (expected.error.empty()) {
                EXPECT_EQ(truncated, damage.torn_tail ? 1U : 0U);
            }
        }
    }

    // The table covers what it says: undamaged byte orders and the clamped
    // snaplen read every record, tears lose exactly the last one, and the
    // structural damages are errors.
    EXPECT_EQ(from_bytes_outcome(damages[0].wire), accepted(capture));
    EXPECT_EQ(from_bytes_outcome(damages[1].wire), accepted(capture));
    EXPECT_EQ(from_bytes_outcome(damages[5].wire), accepted(capture));
    const std::vector<net::Packet> prefix(capture.begin(), capture.end() - 1);
    EXPECT_EQ(from_bytes_outcome(damages[2].wire), accepted(prefix));
    EXPECT_EQ(from_bytes_outcome(damages[3].wire), accepted(prefix));
    for (const std::size_t i : {4, 6, 7, 8}) {
        EXPECT_FALSE(from_bytes_outcome(damages[i].wire).error.empty()) << damages[i].name;
    }
}

/// What a batch tool reports for `bytes`: the format is sniffed, and
/// anything not .tvcr is read as pcap.
std::string batch_error(const Bytes& bytes) {
    if (replay::sniff_capture_format(bytes) == replay::CaptureFormat::kTvcr) {
        auto reader = replay::TvcrReader::from_bytes(bytes);
        return reader.ok() ? "" : reader.error().message;
    }
    auto reader = net::PcapReader::open(write_temp("tvacr_torn_header.pcap", bytes));
    return reader.ok() ? "" : reader.error().message;
}

TEST(GatewaySource, TornFileHeaderFailsLikeTheBatchReader) {
    // No bytes at all is a clean, empty capture, not a torn one: a daemon
    // may start before its writer.
    std::uint64_t none = 0;
    EXPECT_EQ(gateway_outcome(Bytes{}, 4096, none), accepted({}));
    EXPECT_EQ(none, 0U);

    const auto capture = gateway_capture();
    const Bytes pcap = net::to_pcap_bytes(capture);
    const Bytes tvcr = replay::to_tvcr_bytes(capture);
    const std::vector<std::pair<const Bytes*, std::size_t>> formats = {
        {&pcap, net::kPcapGlobalHeaderLen}, {&tvcr, replay::kTvcrHeaderLen}};
    for (const auto& [wire, header_len] : formats) {
        for (std::size_t len = 1; len < header_len; ++len) {
            SCOPED_TRACE(len);
            const Bytes prefix(wire->begin(), wire->begin() + static_cast<std::ptrdiff_t>(len));
            const std::string expected = batch_error(prefix);
            EXPECT_NE(expected.find("truncated file header"), std::string::npos) << expected;
            for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
                std::uint64_t truncated = 0;
                EXPECT_EQ(gateway_outcome(prefix, chunk, truncated), failed(expected));
            }
        }
    }
}

// ------------------------------------------------------- control protocol

TEST(GatewayControl, VerbsRoundTrip) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));
    while (true) {
        const auto status = source.poll(gateway, 4096);
        ASSERT_TRUE(status.ok());
        if (status.value() == SourceStatus::kEnd) break;
    }
    ASSERT_TRUE(source.finalize(gateway).ok());

    // STATS before any drain: everything accepted is still in the ring.
    const auto stats = handle_control_line(gateway, "STATS");
    EXPECT_EQ(stats.text, "OK offered=" + std::to_string(capture.size()) + " accepted=" +
                              std::to_string(capture.size()) +
                              " drained=0 dropped.ring_full=0 dropped.truncated=0 ring=" +
                              std::to_string(capture.size()) + "\n");
    EXPECT_FALSE(stats.shutdown);

    // SNAPSHOT drains first, and its payload frame is the canonical report.
    const auto snapshot = handle_control_line(gateway, "SNAPSHOT");
    const std::string reference = batch_report(capture);
    EXPECT_EQ(snapshot.text, "OK " + std::to_string(reference.size()) + "\n" + reference);
    EXPECT_EQ(gateway.ring_occupancy(), 0U);

    const auto drained = handle_control_line(gateway, "DRAIN");
    EXPECT_EQ(drained.text, "OK drained=0\n");

    const auto ledger = handle_control_line(gateway, "LEDGER");
    EXPECT_EQ(ledger.text, "OK 0\n");  // nothing dropped -> empty frame

    const auto metrics = handle_control_line(gateway, "METRICS");
    EXPECT_NE(metrics.text.find("gateway.offered"), std::string::npos);

    const auto shutdown = handle_control_line(gateway, "  SHUTDOWN\r");
    EXPECT_EQ(shutdown.text, "OK shutdown\n");
    EXPECT_TRUE(shutdown.shutdown);

    EXPECT_EQ(handle_control_line(gateway, "").text, "ERR empty command\n");
    EXPECT_EQ(handle_control_line(gateway, "FROBNICATE").text,
              "ERR unknown command: FROBNICATE\n");
}

TEST(GatewayControl, SnapshotIsIncrementalAndRepeatable) {
    const auto capture = gateway_capture();
    const Bytes wire = net::to_pcap_bytes(capture);
    GatewayOptions options;
    options.device_ip = kDevice;
    Gateway gateway(options);
    StreamSource source(std::make_unique<MemoryFeed>(wire));

    // Half-way snapshot, then stream the rest: the mid-stream snapshot must
    // not disturb the final one (snapshots are const observations).
    std::string mid;
    while (true) {
        const auto status = source.poll(gateway, 512);
        ASSERT_TRUE(status.ok());
        if (mid.empty() && gateway.offered() >= capture.size() / 2) {
            gateway.drain_all();
            mid = replay::canonical_report(gateway.snapshot());
        }
        if (status.value() == SourceStatus::kEnd) break;
    }
    ASSERT_TRUE(source.finalize(gateway).ok());
    gateway.drain_all();
    EXPECT_FALSE(mid.empty());
    const std::string final_report = replay::canonical_report(gateway.snapshot());
    EXPECT_EQ(final_report, batch_report(capture));
    EXPECT_EQ(final_report, replay::canonical_report(gateway.snapshot()));  // repeatable
    EXPECT_NE(mid, final_report);  // the stream really did grow in between
}

}  // namespace
}  // namespace tvacr::gateway
