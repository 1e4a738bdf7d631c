// Tests for the net substrate: addresses, checksums, header codecs, frame
// building/parsing, flows and the pcap file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/rng.hpp"
#include "net/address.hpp"
#include "net/checksum.hpp"
#include "net/fast_parse.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/pcapng.hpp"

namespace tvacr::net {
namespace {

// --------------------------------------------------------------- addresses

TEST(MacAddressTest, ParseAndFormatRoundTrip) {
    const auto mac = MacAddress::parse("02:00:ab:cd:ef:01");
    ASSERT_TRUE(mac.ok());
    EXPECT_EQ(mac.value().to_string(), "02:00:ab:cd:ef:01");
}

TEST(MacAddressTest, RejectsMalformed) {
    EXPECT_FALSE(MacAddress::parse("02:00:ab:cd:ef").ok());
    EXPECT_FALSE(MacAddress::parse("02:00:ab:cd:ef:zz").ok());
    EXPECT_FALSE(MacAddress::parse("0200abcdef01").ok());
}

TEST(MacAddressTest, LocalIsLocallyAdministeredUnicast) {
    const auto mac = MacAddress::local(7);
    EXPECT_EQ(mac.octets()[0] & 0x02, 0x02);  // locally administered
    EXPECT_EQ(mac.octets()[0] & 0x01, 0x00);  // unicast
    EXPECT_NE(MacAddress::local(1), MacAddress::local(2));
}

TEST(MacAddressTest, Broadcast) {
    EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
    EXPECT_FALSE(MacAddress::local(1).is_broadcast());
}

TEST(Ipv4AddressTest, ParseAndFormatRoundTrip) {
    const auto ip = Ipv4Address::parse("192.168.10.25");
    ASSERT_TRUE(ip.ok());
    EXPECT_EQ(ip.value().to_string(), "192.168.10.25");
    EXPECT_EQ(ip.value(), Ipv4Address(192, 168, 10, 25));
}

TEST(Ipv4AddressTest, RejectsMalformed) {
    EXPECT_FALSE(Ipv4Address::parse("192.168.1").ok());
    EXPECT_FALSE(Ipv4Address::parse("192.168.1.256").ok());
    EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").ok());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").ok());
    EXPECT_FALSE(Ipv4Address::parse("1..2.3").ok());
}

TEST(Ipv4RangeTest, ContainsRespectsPrefix) {
    const auto range = Ipv4Range::parse("203.0.113.0/24");
    ASSERT_TRUE(range.ok());
    EXPECT_TRUE(range.value().contains(Ipv4Address(203, 0, 113, 77)));
    EXPECT_FALSE(range.value().contains(Ipv4Address(203, 0, 114, 1)));
}

TEST(Ipv4RangeTest, HostAndUniversalPrefixes) {
    const auto host = Ipv4Range{Ipv4Address(10, 0, 0, 1), 32};
    EXPECT_TRUE(host.contains(Ipv4Address(10, 0, 0, 1)));
    EXPECT_FALSE(host.contains(Ipv4Address(10, 0, 0, 2)));
    const auto all = Ipv4Range{Ipv4Address(0, 0, 0, 0), 0};
    EXPECT_TRUE(all.contains(Ipv4Address(255, 255, 255, 255)));
}

// ---------------------------------------------------------------- checksum

TEST(ChecksumTest, Rfc1071WorkedExample) {
    // Classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
    const Bytes data = {0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
    EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xDDF2 & 0xFFFF));
}

TEST(ChecksumTest, OddLengthPadsWithZero) {
    const Bytes even = {0x12, 0x34, 0x56, 0x00};
    const Bytes odd = {0x12, 0x34, 0x56};
    EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(ChecksumTest, VerifiesToZeroWhenEmbedded) {
    // A buffer with its own checksum embedded sums to zero.
    Bytes data = {0x45, 0x00, 0x00, 0x1C, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                  0x00, 0x00, 0xC0, 0xA8, 0x00, 0x01, 0xC0, 0xA8, 0x00, 0x02};
    const std::uint16_t checksum = internet_checksum(data);
    data[10] = static_cast<std::uint8_t>(checksum >> 8);
    data[11] = static_cast<std::uint8_t>(checksum);
    EXPECT_EQ(internet_checksum(data), 0);
}

// ------------------------------------------------------------ frame builder

Packet make_tcp_frame(const Bytes& payload = {}) {
    const FrameBuilder builder(MacAddress::local(1), MacAddress::local(2));
    return builder.tcp(SimTime::millis(5), Endpoint{Ipv4Address(192, 168, 0, 2), 50000},
                       Endpoint{Ipv4Address(203, 0, 113, 5), 443}, 1000, 2000,
                       TcpFlags::kPsh | TcpFlags::kAck, payload);
}

TEST(FrameBuilderTest, TcpFrameParsesBack) {
    const Bytes payload = {1, 2, 3, 4, 5};
    const Packet frame = make_tcp_frame(payload);
    const auto parsed = parse_packet(frame);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed.value().tcp.has_value());
    EXPECT_EQ(parsed.value().ip->source, Ipv4Address(192, 168, 0, 2));
    EXPECT_EQ(parsed.value().ip->destination, Ipv4Address(203, 0, 113, 5));
    EXPECT_EQ(parsed.value().tcp->source_port, 50000);
    EXPECT_EQ(parsed.value().tcp->destination_port, 443);
    EXPECT_EQ(parsed.value().tcp->sequence, 1000U);
    EXPECT_EQ(parsed.value().tcp->acknowledgment, 2000U);
    EXPECT_TRUE(parsed.value().tcp->has(TcpFlags::kPsh));
    EXPECT_EQ(parsed.value().payload, payload);
    EXPECT_EQ(parsed.value().timestamp, SimTime::millis(5));
}

TEST(FrameBuilderTest, TcpFrameSizeIsExact) {
    // 14 (eth) + 20 (ip) + 20 (tcp) + payload.
    EXPECT_EQ(make_tcp_frame().size(), 54U);
    const Bytes payload(100, 0xAA);
    EXPECT_EQ(make_tcp_frame(payload).size(), 154U);
}

TEST(FrameBuilderTest, UdpFrameParsesBack) {
    const FrameBuilder builder(MacAddress::local(3), MacAddress::local(4));
    const Bytes payload = {9, 8, 7};
    const Packet frame = builder.udp(SimTime::seconds(1), Endpoint{Ipv4Address(10, 0, 0, 1), 5353},
                                     Endpoint{Ipv4Address(10, 0, 0, 2), 53}, payload);
    const auto parsed = parse_packet(frame);
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed.value().udp.has_value());
    EXPECT_EQ(parsed.value().udp->source_port, 5353);
    EXPECT_EQ(parsed.value().udp->destination_port, 53);
    EXPECT_EQ(parsed.value().payload, payload);
    EXPECT_EQ(frame.size(), 14U + 20U + 8U + 3U);
}

TEST(ParsePacketTest, CorruptedIpChecksumIsRejected) {
    Packet frame = make_tcp_frame({1, 2, 3});
    frame.data[16] ^= 0xFF;  // flip a byte inside the IPv4 header
    EXPECT_FALSE(parse_packet(frame).ok());
}

TEST(ParsePacketTest, TruncatedFrameIsRejected) {
    Packet frame = make_tcp_frame({1, 2, 3});
    frame.data.resize(frame.data.size() - 2);
    EXPECT_FALSE(parse_packet(frame).ok());
}

TEST(ParsePacketTest, NonIpFrameYieldsL2Only) {
    ByteWriter w;
    EthernetHeader eth{MacAddress::broadcast(), MacAddress::local(9), EtherType::kArp};
    eth.encode(w);
    w.fill(28, 0);  // ARP body
    const auto parsed = parse_packet(Packet{SimTime{}, std::move(w).take()});
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().ip.has_value());
    EXPECT_FALSE(parsed.value().is_tcp());
    EXPECT_FALSE(parsed.value().is_udp());
}

// --------------------------------------------------------------- fast parse

/// Differential oracle for the streaming hot path: summarize_frame() must
/// reproduce parse_packet_view()'s observable classification on *any* byte
/// string — attributability, addresses, and the harvested DNS payload.
void expect_matches_full_parser(BytesView frame) {
    const FrameSummary summary = summarize_frame(frame);
    const auto parsed = parse_packet_view(frame, SimTime{});
    const bool attributable = parsed.ok() && parsed.value().ip.has_value();
    ASSERT_EQ(summary.attributable, attributable) << "frame size " << frame.size();
    if (!attributable) {
        EXPECT_TRUE(summary.dns_payload.empty());
        return;
    }
    const PacketView& view = parsed.value();
    EXPECT_EQ(summary.source, view.ip->source);
    EXPECT_EQ(summary.destination, view.ip->destination);
    if (view.udp.has_value() && view.udp->source_port == 53) {
        ASSERT_EQ(summary.dns_payload.size(), view.payload.size());
        EXPECT_TRUE(std::equal(summary.dns_payload.begin(), summary.dns_payload.end(),
                               view.payload.begin()));
    } else {
        EXPECT_TRUE(summary.dns_payload.empty());
    }
}

/// Recomputes the IPv4 header checksum after a deliberate header mutation,
/// so the corner being tested is the mutation itself and not a checksum
/// mismatch masking it.
void fix_ip_checksum(Bytes& frame) {
    ASSERT_GE(frame.size(), 34U);
    frame[24] = 0;
    frame[25] = 0;
    const std::uint16_t checksum = internet_checksum(BytesView(frame).subspan(14, 20));
    frame[24] = static_cast<std::uint8_t>(checksum >> 8);
    frame[25] = static_cast<std::uint8_t>(checksum & 0xFF);
}

Packet make_dns_frame(std::uint16_t source_port = 53, const Bytes& payload = {0xAB, 0xCD, 0x01,
                                                                              0x02, 0x03}) {
    const FrameBuilder builder(MacAddress::local(5), MacAddress::local(6));
    return builder.udp(SimTime::millis(1), Endpoint{Ipv4Address(9, 9, 9, 9), source_port},
                       Endpoint{Ipv4Address(192, 168, 0, 2), 40000}, payload);
}

TEST(FastParseTest, AgreesOnWellFormedFrames) {
    expect_matches_full_parser(make_tcp_frame().data);
    expect_matches_full_parser(make_tcp_frame(Bytes(300, 0x42)).data);
    expect_matches_full_parser(make_dns_frame().data);          // DNS response: payload harvested
    expect_matches_full_parser(make_dns_frame(5353).data);      // mDNS: not harvested
    expect_matches_full_parser(make_dns_frame(53, {}).data);    // empty DNS payload
    const FrameSummary dns = summarize_frame(make_dns_frame().data);
    EXPECT_TRUE(dns.attributable);
    EXPECT_EQ(dns.dns_payload.size(), 5U);

    // Non-IP (ARP) frame: parses, but carries no IPv4 layer -> unattributable.
    ByteWriter w;
    EthernetHeader eth{MacAddress::broadcast(), MacAddress::local(9), EtherType::kArp};
    eth.encode(w);
    w.fill(28, 0);
    const Bytes arp = std::move(w).take();
    expect_matches_full_parser(arp);
}

TEST(FastParseTest, AgreesOnEveryTruncationLength) {
    for (const Bytes& whole : {make_tcp_frame({1, 2, 3, 4, 5, 6, 7, 8}).data,
                               make_dns_frame().data}) {
        for (std::size_t n = 0; n <= whole.size(); ++n) {
            expect_matches_full_parser(BytesView(whole).first(n));
        }
    }
}

TEST(FastParseTest, AgreesOnCraftedHeaderCorners) {
    const Bytes tcp = make_tcp_frame(Bytes(12, 0x33)).data;
    const Bytes udp = make_dns_frame().data;

    // Each case mutates a copy; `fix` recomputes the IP checksum so the
    // mutation itself (not a stale checksum) drives the classification.
    const auto mutated = [](Bytes frame, std::size_t at, std::uint8_t value, bool fix) {
        frame[at] = value;
        if (fix) fix_ip_checksum(frame);
        return frame;
    };

    expect_matches_full_parser(mutated(tcp, 16, 0xFF, false));  // corrupted IP checksum
    expect_matches_full_parser(mutated(tcp, 14, 0x46, true));   // IHL 6 (options) rejected
    expect_matches_full_parser(mutated(tcp, 14, 0x55, true));   // IPv5 rejected
    expect_matches_full_parser(mutated(tcp, 12, 0x08, false));  // still IPv4 ethertype
    expect_matches_full_parser(mutated(tcp, 13, 0x06, false));  // ARP ethertype
    expect_matches_full_parser(mutated(tcp, 23, 1, true));      // ICMP: attributable, no ports
    expect_matches_full_parser(mutated(tcp, 23, 0x99, true));   // unknown proto: attributable

    // total_length corners: below the minimum header, past the frame end,
    // and shorter than the frame (Ethernet trailer padding is legal).
    {
        Bytes frame = tcp;
        frame[16] = 0;
        frame[17] = 19;
        fix_ip_checksum(frame);
        expect_matches_full_parser(frame);
    }
    {
        Bytes frame = tcp;
        frame[16] = 0x7F;
        frame[17] = 0xFF;
        fix_ip_checksum(frame);
        expect_matches_full_parser(frame);
    }
    {
        Bytes frame = tcp;
        frame.insert(frame.end(), 18, 0x00);  // trailer bytes beyond total_length
        expect_matches_full_parser(frame);
    }

    // TCP data-offset corners: below the legal minimum, options eating into
    // the payload, and a header claiming more than the IP payload holds.
    expect_matches_full_parser(mutated(tcp, 46, 0x40, false));  // offset 4 words: reject
    expect_matches_full_parser(mutated(tcp, 46, 0x60, false));  // 4 option bytes: accept
    expect_matches_full_parser(mutated(tcp, 46, 0xF0, false));  // 60B header > payload: reject

    // UDP length corners: below the 8-byte header, past the frame, and
    // shorter than the IP payload claims.
    expect_matches_full_parser(mutated(udp, 39, 4, false));
    expect_matches_full_parser(mutated(udp, 39, 200, false));
    expect_matches_full_parser(mutated(udp, 39, 11, false));
}

TEST(FastParseTest, AgreesOnRandomByteFlips) {
    // Fuzz the equivalence: random single/multi-byte mutations anywhere in
    // the frame, half the time with the checksum re-fixed so deeper layers
    // stay reachable. Deterministic seed, so failures reproduce.
    Rng rng(0xFA57BEEF);
    const Bytes bases[] = {make_tcp_frame(Bytes(40, 0x77)).data, make_dns_frame().data};
    for (int trial = 0; trial < 3000; ++trial) {
        Bytes frame = bases[trial % 2];
        const int flips = 1 + static_cast<int>(rng() % 3);
        for (int f = 0; f < flips; ++f) {
            const std::size_t at = static_cast<std::size_t>(rng() % frame.size());
            frame[at] = static_cast<std::uint8_t>(rng());
        }
        if (rng() % 2 == 0) fix_ip_checksum(frame);
        expect_matches_full_parser(frame);
    }
}

// -------------------------------------------------------------------- flows

TEST(FiveTupleTest, CanonicalIsDirectionInsensitive) {
    const FiveTuple forward{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), 1111, 443,
                            IpProtocol::kTcp};
    FiveTuple backward = forward;
    std::swap(backward.source, backward.destination);
    std::swap(backward.source_port, backward.destination_port);
    EXPECT_EQ(forward.canonical(), backward.canonical());
    EXPECT_NE(forward, backward);
}

TEST(FlowTableTest, AggregatesBothDirections) {
    FlowTable table;
    const FrameBuilder tv(MacAddress::local(1), MacAddress::local(2));
    const FrameBuilder server(MacAddress::local(2), MacAddress::local(1));
    const Endpoint tv_ep{Ipv4Address(192, 168, 0, 2), 40000};
    const Endpoint server_ep{Ipv4Address(203, 0, 113, 9), 443};

    const Bytes up(100, 1);
    const Bytes down(700, 2);
    table.add(parse_packet(tv.tcp(SimTime::millis(1), tv_ep, server_ep, 1, 1,
                                  TcpFlags::kAck, up)).value());
    table.add(parse_packet(server.tcp(SimTime::millis(2), server_ep, tv_ep, 1, 101,
                                      TcpFlags::kAck, down)).value());

    EXPECT_EQ(table.flow_count(), 1U);
    const FiveTuple key{tv_ep.address, server_ep.address, tv_ep.port, server_ep.port,
                        IpProtocol::kTcp};
    const auto* stats = table.find(key);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->packets, 2U);
    EXPECT_EQ(stats->payload_bytes, 800U);
    EXPECT_EQ(stats->bytes, 800U + 2 * 54U);
    EXPECT_EQ(stats->first_seen, SimTime::millis(1));
    EXPECT_EQ(stats->last_seen, SimTime::millis(2));
}

TEST(FlowTableTest, SortedByBytesDescending) {
    FlowTable table;
    const FrameBuilder builder(MacAddress::local(1), MacAddress::local(2));
    const Endpoint a{Ipv4Address(10, 0, 0, 1), 1000};
    const Endpoint big{Ipv4Address(10, 9, 9, 9), 443};
    const Endpoint small{Ipv4Address(10, 8, 8, 8), 443};
    table.add(parse_packet(builder.tcp(SimTime{}, a, big, 1, 1, 0, Bytes(500, 0))).value());
    table.add(parse_packet(builder.tcp(SimTime{}, a, small, 1, 1, 0, Bytes(5, 0))).value());
    const auto sorted = table.sorted_by_bytes();
    ASSERT_EQ(sorted.size(), 2U);
    EXPECT_EQ(sorted[0].first.canonical().destination_port, 443);
    EXPECT_GT(sorted[0].second.bytes, sorted[1].second.bytes);
}

// --------------------------------------------------------------------- pcap

std::vector<Packet> sample_packets() {
    std::vector<Packet> packets;
    packets.push_back(make_tcp_frame({1, 2, 3}));
    packets.push_back(make_tcp_frame(Bytes(200, 0x55)));
    packets[1].timestamp = SimTime::seconds(2) + SimTime::micros(123456);
    return packets;
}

TEST(PcapTest, RoundTripInMemory) {
    const auto original = sample_packets();
    const Bytes file = to_pcap_bytes(original);
    const auto restored = from_pcap_bytes(file);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(restored.value()[i].timestamp, original[i].timestamp);
        EXPECT_EQ(restored.value()[i].data, original[i].data);
    }
}

TEST(PcapTest, GlobalHeaderFields) {
    const Bytes file = to_pcap_bytes({});
    ASSERT_GE(file.size(), 24U);
    // Little-endian magic, version 2.4, linktype 1.
    EXPECT_EQ(file[0], 0xD4);
    EXPECT_EQ(file[1], 0xC3);
    EXPECT_EQ(file[2], 0xB2);
    EXPECT_EQ(file[3], 0xA1);
    EXPECT_EQ(file[4], 2);
    EXPECT_EQ(file[6], 4);
    EXPECT_EQ(file[20], 1);
}

TEST(PcapTest, StreamingWriterMatchesBatch) {
    const auto packets = sample_packets();
    std::ostringstream stream;
    PcapWriter writer(stream);
    for (const auto& packet : packets) writer.write(packet);
    EXPECT_EQ(writer.packets_written(), packets.size());
    const std::string s = stream.str();
    const Bytes streamed(s.begin(), s.end());
    EXPECT_EQ(streamed, to_pcap_bytes(packets));
}

TEST(PcapTest, ToleratesTruncatedFinalRecord) {
    Bytes file = to_pcap_bytes(sample_packets());
    file.resize(file.size() - 10);  // cut into the final packet body
    const auto restored = from_pcap_bytes(file);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), 1U);
}

TEST(PcapTest, OversizedPacketIsTruncatedToSnapLenOnWrite) {
    // Regression: the writer used to emit incl_len = the full frame size
    // even past kPcapSnapLen, producing files the reader itself rejected
    // ("record exceeds snaplen"). The writer now truncates the stored bytes
    // to the snap length while preserving the true size in orig_len.
    Packet oversized;
    oversized.timestamp = SimTime::seconds(1);
    oversized.data = Bytes(kPcapSnapLen + 1000, 0xAB);
    Packet normal = make_tcp_frame({1, 2, 3});

    const Bytes file = to_pcap_bytes({oversized, normal});
    const auto restored = from_pcap_bytes(file);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().size(), 2U);
    // First record: capped at the snap length, content preserved up to it.
    EXPECT_EQ(restored.value()[0].data.size(), kPcapSnapLen);
    EXPECT_EQ(restored.value()[0].data, Bytes(kPcapSnapLen, 0xAB));
    EXPECT_EQ(restored.value()[0].timestamp, oversized.timestamp);
    // Records after the oversized one are unaffected.
    EXPECT_EQ(restored.value()[1].data, normal.data);
    // orig_len (bytes 12..15 of the record header, little-endian) still
    // records the untruncated size.
    const std::size_t record = 24;  // first record header after the global header
    const std::uint32_t orig_len = static_cast<std::uint32_t>(file[record + 12]) |
                                   (static_cast<std::uint32_t>(file[record + 13]) << 8) |
                                   (static_cast<std::uint32_t>(file[record + 14]) << 16) |
                                   (static_cast<std::uint32_t>(file[record + 15]) << 24);
    EXPECT_EQ(orig_len, kPcapSnapLen + 1000);
}

namespace {

/// Pokes a little-endian u32 into raw pcap bytes (header/record patching).
void poke_u32le(Bytes& bytes, std::size_t at, std::uint32_t value) {
    bytes[at] = static_cast<std::uint8_t>(value & 0xFF);
    bytes[at + 1] = static_cast<std::uint8_t>((value >> 8) & 0xFF);
    bytes[at + 2] = static_cast<std::uint8_t>((value >> 16) & 0xFF);
    bytes[at + 3] = static_cast<std::uint8_t>((value >> 24) & 0xFF);
}

/// A hand-built single-record pcap with an arbitrary declared snaplen and
/// record length — the shape a foreign (non-toolkit) capture tool produces.
Bytes foreign_pcap(std::uint32_t declared_snaplen, std::uint32_t record_len) {
    Bytes file = to_pcap_bytes({});
    poke_u32le(file, 16, declared_snaplen);
    const std::size_t record = file.size();
    file.resize(record + kPcapRecordHeaderLen + record_len, 0xCD);
    poke_u32le(file, record, 3);           // ts_sec
    poke_u32le(file, record + 4, 0);       // ts_usec
    poke_u32le(file, record + 8, record_len);
    poke_u32le(file, record + 12, record_len);
    return file;
}

std::string write_temp(const std::string& name, const Bytes& bytes) {
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

}  // namespace

TEST(PcapTest, HonorsDeclaredSnapLenLargerThanDefault) {
    // Regression: records were validated against the compile-time
    // kPcapSnapLen instead of the snaplen the file header declares, so a
    // valid foreign capture with a bigger limit was rejected as corrupt.
    const Bytes file = foreign_pcap(/*declared_snaplen=*/0x80000, /*record_len=*/300000);
    const auto restored = from_pcap_bytes(file);
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().size(), 1U);
    EXPECT_EQ(restored.value()[0].data.size(), 300000U);
    EXPECT_EQ(restored.value()[0].timestamp, SimTime::seconds(3));
}

TEST(PcapTest, RejectsRecordExceedingDeclaredSnapLen) {
    // The declared limit is still enforced: a record longer than the header
    // promises is corruption, however small the numbers.
    const Bytes file = foreign_pcap(/*declared_snaplen=*/100, /*record_len=*/200);
    EXPECT_FALSE(from_pcap_bytes(file).ok());
}

TEST(PcapTest, UnlimitedSnapLenIsClampedNotRejected) {
    // Writers declaring "unlimited" (0) must not disable validation or
    // demand giant buffers: the effective limit clamps to kPcapMaxSnapLen.
    const Bytes file = foreign_pcap(/*declared_snaplen=*/0, /*record_len=*/300000);
    const auto restored = from_pcap_bytes(file);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value()[0].data.size(), 300000U);
}

TEST(PcapReaderTest, StreamsIdenticallyToFromPcapBytes) {
    std::vector<Packet> packets;
    for (int i = 0; i < 300; ++i) {
        packets.push_back(make_tcp_frame(Bytes(static_cast<std::size_t>(37 * i % 900), 0x5A)));
        packets.back().timestamp = SimTime::millis(i * 7);
    }
    const std::string path = write_temp("tvacr_pcap_stream.pcap", to_pcap_bytes(packets));
    auto reader = PcapReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().declared_snaplen(), kPcapSnapLen);
    std::size_t i = 0;
    while (true) {
        auto record = reader.value().next();
        ASSERT_TRUE(record.ok());
        if (!record.value().has_value()) break;
        ASSERT_LT(i, packets.size());
        EXPECT_EQ(record.value()->timestamp, packets[i].timestamp);
        EXPECT_EQ(Bytes(record.value()->frame.begin(), record.value()->frame.end()),
                  packets[i].data);
        EXPECT_EQ(record.value()->orig_len, packets[i].data.size());
        ++i;
    }
    EXPECT_EQ(i, packets.size());
    EXPECT_EQ(reader.value().packets_read(), packets.size());
    // Exhausted readers keep returning end-of-capture, not errors.
    auto again = reader.value().next();
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again.value().has_value());
}

TEST(PcapReaderTest, ToleratesTruncatedFinalRecord) {
    Bytes file = to_pcap_bytes(sample_packets());
    file.resize(file.size() - 10);  // cut into the final packet body
    const std::string path = write_temp("tvacr_pcap_stream_trunc.pcap", file);
    auto reader = PcapReader::open(path);
    ASSERT_TRUE(reader.ok());
    auto first = reader.value().next();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value().has_value());
    auto second = reader.value().next();
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(second.value().has_value());  // truncation ends the capture cleanly
}

TEST(PcapReaderTest, HonorsDeclaredSnapLenAndRejectsExcess) {
    const std::string big = write_temp("tvacr_pcap_stream_big.pcap",
                                       foreign_pcap(0x80000, 300000));
    auto reader = PcapReader::open(big);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().declared_snaplen(), 0x80000U);
    auto record = reader.value().next();
    ASSERT_TRUE(record.ok());
    ASSERT_TRUE(record.value().has_value());
    EXPECT_EQ(record.value()->frame.size(), 300000U);

    const std::string bad = write_temp("tvacr_pcap_stream_bad.pcap", foreign_pcap(100, 200));
    auto bad_reader = PcapReader::open(bad);
    ASSERT_TRUE(bad_reader.ok());
    EXPECT_FALSE(bad_reader.value().next().ok());
}

/// Streams one file through both PcapReader backends and requires the
/// record sequences — including the position and message of any error — to
/// be indistinguishable.
void expect_backends_agree(const std::string& path) {
    auto mapped = PcapReader::open(path, PcapBackend::kAuto);
    auto buffered = PcapReader::open(path, PcapBackend::kBuffered);
    ASSERT_EQ(mapped.ok(), buffered.ok());
    if (!mapped.ok()) {
        EXPECT_EQ(mapped.error().message, buffered.error().message);
        return;
    }
    EXPECT_FALSE(buffered.value().memory_mapped());
    EXPECT_EQ(mapped.value().declared_snaplen(), buffered.value().declared_snaplen());
    while (true) {
        auto a = mapped.value().next();
        auto b = buffered.value().next();
        ASSERT_EQ(a.ok(), b.ok());
        if (!a.ok()) {
            EXPECT_EQ(a.error().message, b.error().message);
            return;
        }
        ASSERT_EQ(a.value().has_value(), b.value().has_value());
        if (!a.value().has_value()) break;
        EXPECT_EQ(a.value()->timestamp, b.value()->timestamp);
        EXPECT_EQ(a.value()->orig_len, b.value()->orig_len);
        ASSERT_EQ(a.value()->frame.size(), b.value()->frame.size());
        EXPECT_TRUE(std::equal(a.value()->frame.begin(), a.value()->frame.end(),
                               b.value()->frame.begin()));
    }
    EXPECT_EQ(mapped.value().packets_read(), buffered.value().packets_read());
}

TEST(PcapReaderTest, MappedBackendStreamsIdenticallyToBuffered) {
    std::vector<Packet> packets;
    for (int i = 0; i < 200; ++i) {
        packets.push_back(make_tcp_frame(Bytes(static_cast<std::size_t>(41 * i % 700), 0xA5)));
        packets.back().timestamp = SimTime::millis(i * 13);
    }
    const std::string path = write_temp("tvacr_pcap_mmap.pcap", to_pcap_bytes(packets));
#if defined(__unix__) || defined(__APPLE__)
    auto probe = PcapReader::open(path);
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(probe.value().memory_mapped());
#endif
    expect_backends_agree(path);
}

TEST(PcapReaderTest, BackendsAgreeOnTruncatedAndCorruptFiles) {
    Bytes truncated = to_pcap_bytes(sample_packets());
    truncated.resize(truncated.size() - 10);
    expect_backends_agree(write_temp("tvacr_pcap_mmap_trunc.pcap", truncated));

    // Record longer than the declared snaplen: both backends must fail at
    // the same record with the same message.
    expect_backends_agree(write_temp("tvacr_pcap_mmap_bad.pcap", foreign_pcap(100, 200)));

    // Foreign snaplen larger than the default: both honor the declared one.
    expect_backends_agree(write_temp("tvacr_pcap_mmap_big.pcap", foreign_pcap(0x80000, 300000)));

    // Header-only file and a header cut short.
    expect_backends_agree(write_temp("tvacr_pcap_mmap_empty.pcap", to_pcap_bytes({})));
    Bytes header_cut = to_pcap_bytes({});
    header_cut.resize(20);
    expect_backends_agree(write_temp("tvacr_pcap_mmap_cut.pcap", header_cut));
}

TEST(PcapReaderTest, OpenRejectsMissingAndGarbageFiles) {
    EXPECT_FALSE(PcapReader::open(::testing::TempDir() + "tvacr_nope.pcap").ok());
    Bytes garbage = to_pcap_bytes(sample_packets());
    garbage[0] ^= 0xFF;
    const std::string path = write_temp("tvacr_pcap_garbage.pcap", garbage);
    EXPECT_FALSE(PcapReader::open(path).ok());
}

TEST(PcapTest, RejectsGarbageMagic) {
    Bytes file = to_pcap_bytes(sample_packets());
    file[0] ^= 0xFF;
    EXPECT_FALSE(from_pcap_bytes(file).ok());
}

TEST(PcapTest, FileRoundTrip) {
    const auto packets = sample_packets();
    const std::string path = ::testing::TempDir() + "tvacr_pcap_test.pcap";
    ASSERT_TRUE(write_pcap_file(path, packets).ok());
    const auto restored = read_pcap_file(path);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), packets.size());
    EXPECT_FALSE(read_pcap_file(path + ".missing").ok());
}

Bytes read_whole_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void expect_file_equals_in_memory(const std::string& name, const std::vector<Packet>& packets) {
    SCOPED_TRACE(name);
    const std::string path = ::testing::TempDir() + name;
    ASSERT_TRUE(write_pcap_file(path, packets).ok());
    EXPECT_EQ(read_whole_file(path), to_pcap_bytes(packets));
}

TEST(PcapTest, StreamedFileEqualsInMemoryBytes) {
    expect_file_equals_in_memory("tvacr_pcap_empty.pcap", {});
    expect_file_equals_in_memory("tvacr_pcap_one.pcap", {make_tcp_frame({1, 2, 3})});
    // Longer than the snaplen: both writers cap incl_len and keep orig_len.
    Packet jumbo{SimTime::seconds(4), Bytes(kPcapSnapLen + 1000, 0x5A)};
    expect_file_equals_in_memory("tvacr_pcap_jumbo.pcap", {make_tcp_frame(), jumbo});
    // About 5 MiB in odd-sized records, so they cross the writer's 1 MiB
    // buffer bound several times, each time at a different record offset.
    Rng rng(31);
    std::vector<Packet> many;
    std::size_t total = 0;
    while (total < (5U << 20)) {
        Packet packet{SimTime::micros(static_cast<std::int64_t>(many.size()) * 1'001),
                      Bytes(static_cast<std::size_t>(rng.uniform(1, 70'000)), 0)};
        for (auto& byte : packet.data) byte = static_cast<std::uint8_t>(rng());
        total += packet.data.size();
        many.push_back(std::move(packet));
    }
    many.push_back(jumbo);
    expect_file_equals_in_memory("tvacr_pcap_many.pcap", many);
}

TEST(PcapTest, FailedFileWriteLeavesNoFile) {
    // The finalized write streams into `path`.tmp; pointing that at
    // /dev/full makes the stream itself fail (ENOSPC) partway through.
    if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    const std::string path = ::testing::TempDir() + "tvacr_pcap_full.pcap";
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
    std::filesystem::create_symlink("/dev/full", path + ".tmp");
    std::vector<Packet> packets(40, Packet{SimTime::seconds(1), Bytes(60'000, 0x11)});
    EXPECT_FALSE(write_pcap_file(path, packets).ok());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::is_symlink(path + ".tmp"));
}

// ------------------------------------------------------------------- pcapng

TEST(PcapngTest, RoundTripInMemory) {
    const auto original = sample_packets();
    const auto restored = from_pcapng_bytes(to_pcapng_bytes(original));
    ASSERT_TRUE(restored.ok());
    ASSERT_EQ(restored.value().size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(restored.value()[i].timestamp, original[i].timestamp);
        EXPECT_EQ(restored.value()[i].data, original[i].data);
    }
}

TEST(PcapngTest, BlocksAre32BitAligned) {
    const Bytes file = to_pcapng_bytes(sample_packets());
    EXPECT_EQ(file.size() % 4, 0U);
    // First block is the SHB with the little-endian byte-order magic.
    EXPECT_EQ(file[0], 0x0A);
    EXPECT_EQ(file[3], 0x0A);
    EXPECT_EQ(file[8], 0x4D);
    EXPECT_EQ(file[11], 0x1A);
}

TEST(PcapngTest, SkipsUnknownBlocks) {
    // Inject a Name Resolution Block (type 4) between IDB and EPBs.
    const auto packets = sample_packets();
    Bytes file = to_pcapng_bytes(packets);
    // Build an unknown block and splice after SHB (28 bytes) + IDB (20).
    const Bytes unknown = {0x04, 0, 0, 0, 0x10, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD,
                           0x10, 0, 0, 0};
    file.insert(file.begin() + 48, unknown.begin(), unknown.end());
    const auto restored = from_pcapng_bytes(file);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), packets.size());
}

TEST(PcapngTest, ToleratesTruncatedTail) {
    Bytes file = to_pcapng_bytes(sample_packets());
    file.resize(file.size() - 7);
    const auto restored = from_pcapng_bytes(file);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), 1U);
}

TEST(PcapngTest, RejectsGarbage) {
    EXPECT_FALSE(from_pcapng_bytes(Bytes{1, 2, 3, 4, 5, 6}).ok());
    Bytes file = to_pcapng_bytes(sample_packets());
    file[8] ^= 0xFF;  // byte-order magic
    EXPECT_FALSE(from_pcapng_bytes(file).ok());
}

TEST(PcapngTest, FileRoundTrip) {
    const auto packets = sample_packets();
    const std::string path = ::testing::TempDir() + "tvacr_pcapng_test.pcapng";
    ASSERT_TRUE(write_pcapng_file(path, packets).ok());
    const auto restored = read_pcapng_file(path);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value().size(), packets.size());
}

// ------------------------------------------------------- writer failures

/// A streambuf that accepts `budget` bytes, then fails every write — the
/// in-process stand-in for a disk filling up mid-capture.
class FailingBuf : public std::streambuf {
  public:
    explicit FailingBuf(std::size_t budget) : budget_(budget) {}

  protected:
    int_type overflow(int_type ch) override {
        if (budget_ == 0) return traits_type::eof();
        --budget_;
        return ch;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
        if (static_cast<std::size_t>(n) > budget_) {
            const auto wrote = static_cast<std::streamsize>(budget_);
            budget_ = 0;
            return wrote;  // short write -> stream badbit
        }
        budget_ -= static_cast<std::size_t>(n);
        return n;
    }

  private:
    std::size_t budget_;
};

TEST(PcapWriterFailure, ShortWriteSurfacesAndLatches) {
    // Regression: write() used to ignore the stream state entirely, so a
    // full disk produced a truncated capture that still "succeeded".
    const auto packets = sample_packets();
    FailingBuf buf(kPcapGlobalHeaderLen + 10);  // dies inside packet 1
    std::ostream out(&buf);
    PcapWriter writer(out);
    ASSERT_TRUE(writer.status().ok());  // header fit
    writer.write(packets[0]);
    EXPECT_FALSE(writer.status().ok());
    EXPECT_EQ(writer.packets_written(), 0U);
    // The failure is sticky: later writes refuse instead of interleaving
    // garbage, and finish() reports it too.
    writer.write(packets[1]);
    EXPECT_EQ(writer.packets_written(), 0U);
    EXPECT_FALSE(writer.finish().ok());
}

TEST(PcapWriterFailure, FailedHeaderWriteIsVisibleImmediately) {
    FailingBuf buf(0);
    std::ostream out(&buf);
    PcapWriter writer(out);
    EXPECT_FALSE(writer.status().ok());
    writer.write(sample_packets()[0]);
    EXPECT_EQ(writer.packets_written(), 0U);
}

TEST(PcapWriterFailure, HealthyStreamFinishesClean) {
    const auto packets = sample_packets();
    std::ostringstream stream;
    PcapWriter writer(stream);
    for (const auto& packet : packets) writer.write(packet);
    EXPECT_TRUE(writer.finish().ok());
    EXPECT_EQ(writer.packets_written(), packets.size());
}

}  // namespace
}  // namespace tvacr::net
