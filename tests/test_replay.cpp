// Tests for the .tvcr record/replay layer: the byte codecs (varint, zigzag,
// CRC-32, LZ), the TvcrWriter/TvcrReader format round-trip, the
// replay-determinism contract (replay-from-block-0 is byte-identical to the
// batch engine; replay-from-block-k equals the batch run over the record
// suffix; --since equals the batch run over the filtered capture — at
// worker counts 1, 4 and 8), and the corruption-robustness suite
// (truncations, bit flips, crafted block payloads: always a clean Error,
// never UB — the CI sanitizer matrix runs all of this under ASan/UBSan).
// tests/test_gateway.cpp holds the damage table every .tvcr reader must
// agree on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dns/message.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/pcapng.hpp"
#include "replay/codec.hpp"
#include "replay/replay.hpp"
#include "replay/tvcr.hpp"

namespace tvacr::replay {
namespace {

using net::Ipv4Address;

const Ipv4Address kDevice(192, 168, 4, 23);
const Ipv4Address kResolver(9, 9, 9, 9);

// ------------------------------------------------------------------ codecs

TEST(CodecTest, VarintRoundTripsBoundaryValues) {
    const std::uint64_t values[] = {0, 1, 127, 128, 16383, 16384, 0xFFFFFFFFULL,
                                    0xFFFFFFFFFFFFFFFFULL};
    for (const std::uint64_t value : values) {
        ByteWriter out;
        put_varint(out, value);
        ByteReader in(out.view());
        auto back = get_varint(in);
        ASSERT_TRUE(back.ok()) << value;
        EXPECT_EQ(back.value(), value);
        EXPECT_TRUE(in.at_end());
    }
}

TEST(CodecTest, VarintRejectsTruncationAndOverlongForms) {
    ByteWriter out;
    put_varint(out, 0xFFFFFFFFFFFFFFFFULL);
    const Bytes encoded = std::move(out).take();
    for (std::size_t len = 0; len < encoded.size(); ++len) {
        ByteReader in(BytesView(encoded.data(), len));
        EXPECT_FALSE(get_varint(in).ok()) << "prefix length " << len;
    }
    // 10 continuation bytes followed by a terminator: longer than any u64.
    const Bytes overlong(11, 0x80);
    ByteReader in(overlong);
    EXPECT_FALSE(get_varint(in).ok());
    // A 10-byte form whose final byte carries bits above bit 63.
    Bytes overflow(9, 0x80);
    overflow.push_back(0x02);
    ByteReader in2(overflow);
    EXPECT_FALSE(get_varint(in2).ok());
}

TEST(CodecTest, ZigzagIsAnInvolutionAndKeepsSmallDeltasSmall) {
    const std::int64_t values[] = {0, 1, -1, 63, -64, std::int64_t{1} << 40,
                                   -(std::int64_t{1} << 40), INT64_MAX, INT64_MIN};
    for (const std::int64_t value : values) {
        EXPECT_EQ(zigzag_decode(zigzag_encode(value)), value);
    }
    EXPECT_EQ(zigzag_encode(-1), 1U);
    EXPECT_EQ(zigzag_encode(1), 2U);
    EXPECT_LT(zigzag_encode(-64), 128U);  // one varint byte
}

TEST(CodecTest, Crc32MatchesKnownVector) {
    const std::string check = "123456789";
    EXPECT_EQ(crc32(BytesView(reinterpret_cast<const std::uint8_t*>(check.data()),
                              check.size())),
              0xCBF43926U);
    EXPECT_EQ(crc32(BytesView{}), 0U);
}

Bytes pseudo_random_bytes(std::size_t n, std::uint64_t seed) {
    Bytes out(n);
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < n; ++i) {
        state = splitmix64(state + i);
        out[i] = static_cast<std::uint8_t>(state);
    }
    return out;
}

TEST(CodecTest, LzRoundTripsVariedInputs) {
    std::vector<Bytes> inputs;
    inputs.push_back(Bytes{});
    inputs.push_back(Bytes{0x42});
    inputs.push_back(Bytes(10000, 0xEE));  // pure RLE, overlapping matches
    inputs.push_back(pseudo_random_bytes(5000, 7));  // incompressible
    Bytes repeats;  // long repeated structure, offsets > 255
    for (int i = 0; i < 300; ++i) {
        const std::string chunk = "domain" + std::to_string(i % 12) + ".example.com|";
        repeats.insert(repeats.end(), chunk.begin(), chunk.end());
    }
    inputs.push_back(repeats);
    for (const Bytes& input : inputs) {
        const Bytes packed = lz_compress(input);
        auto unpacked = lz_decompress(packed, input.size());
        ASSERT_TRUE(unpacked.ok()) << unpacked.error().message;
        EXPECT_EQ(unpacked.value(), input);
    }
    // The compressible cases must actually compress.
    EXPECT_LT(lz_compress(Bytes(10000, 0xEE)).size(), 200U);
    EXPECT_LT(lz_compress(repeats).size(), repeats.size() / 4);
}

TEST(CodecTest, ReusedLzTableCompressesEachBlockAsAFreshOne) {
    // One LzCompressor across blocks that repeat each other: a table entry
    // left by an earlier block must read as empty, so every block's bytes
    // equal lz_compress on its own.
    Bytes repeats;
    for (int i = 0; i < 300; ++i) {
        const std::string chunk = "domain" + std::to_string(i % 12) + ".example.com|";
        repeats.insert(repeats.end(), chunk.begin(), chunk.end());
    }
    std::vector<Bytes> blocks = {repeats, repeats, pseudo_random_bytes(5000, 7), Bytes{}};
    blocks.push_back(Bytes{0x42});
    blocks.push_back(Bytes(10000, 0xEE));
    blocks.push_back(Bytes(repeats.begin(), repeats.begin() + 700));
    blocks.push_back(repeats);
    LzCompressor compressor;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(compressor.compress(blocks[i]), lz_compress(blocks[i])) << "block " << i;
    }
}

TEST(CodecTest, LzDecompressRejectsCorruptStreams) {
    const Bytes input(1000, 0xAB);
    const Bytes packed = lz_compress(input);
    // Every truncation fails cleanly.
    for (std::size_t len = 0; len < packed.size(); ++len) {
        EXPECT_FALSE(lz_decompress(BytesView(packed.data(), len), input.size()).ok());
    }
    // Wrong declared size: both too small and too large are errors.
    EXPECT_FALSE(lz_decompress(packed, input.size() - 1).ok());
    EXPECT_FALSE(lz_decompress(packed, input.size() + 1).ok());
    // A back-reference before the start of the output.
    const Bytes bogus = {0x14, 'a', 0xFF, 0xFF};  // 1 literal, offset 65535
    EXPECT_FALSE(lz_decompress(bogus, 100).ok());
}

// ----------------------------------------------------------------- fixture

net::Packet dns_response_packet(const std::string& name, Ipv4Address address, SimTime t) {
    const auto domain = dns::DomainName::parse(name).value();
    const auto query = make_query(7, domain, dns::RecordType::kA);
    const auto response = make_response(query, {dns::ResourceRecord::a(domain, address)},
                                        dns::ResponseCode::kNoError);
    const net::FrameBuilder builder(net::MacAddress::local(2), net::MacAddress::local(1));
    return builder.udp(t, net::Endpoint{kResolver, dns::kDnsPort},
                       net::Endpoint{kDevice, 40000}, response.encode());
}

net::Packet tcp_packet(Ipv4Address src, Ipv4Address dst, SimTime t, std::size_t payload_size,
                       std::uint8_t fill = 0xEE) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const std::uint16_t src_port = src == kDevice ? 50000 : 443;
    const std::uint16_t dst_port = dst == kDevice ? 50000 : 443;
    return builder.tcp(t, net::Endpoint{src, src_port}, net::Endpoint{dst, dst_port}, 1, 1,
                       net::TcpFlags::kAck, Bytes(payload_size, fill));
}

/// A capture exercising the replay corners: pre-birth traffic (stays
/// unresolved), a mapping born mid-capture, two addresses for one domain,
/// foreign traffic, an unparseable frame, and enough packets for several
/// blocks at small block_records.
std::vector<net::Packet> replay_capture() {
    const Ipv4Address acr(23, 0, 1, 10);
    const Ipv4Address ads(23, 0, 2, 20);
    const Ipv4Address ads2(23, 0, 2, 21);
    std::vector<net::Packet> capture;
    capture.push_back(tcp_packet(kDevice, acr, SimTime::millis(5), 400));  // pre-birth
    capture.push_back(dns_response_packet("acr-eu-prd.samsungcloud.tv", acr,
                                          SimTime::millis(10)));
    capture.push_back(dns_response_packet("ads.example.com", ads, SimTime::millis(20)));
    capture.push_back(net::Packet{SimTime::millis(25), Bytes{0xDE, 0xAD}});  // unparseable
    for (int i = 0; i < 240; ++i) {
        const SimTime t = SimTime::millis(30 + i * 10);
        switch (i % 4) {
            case 0: capture.push_back(tcp_packet(kDevice, acr, t, 100 + i)); break;
            case 1: capture.push_back(tcp_packet(acr, kDevice, t, 700)); break;
            case 2: capture.push_back(tcp_packet(kDevice, ads, t, 64)); break;
            default:
                capture.push_back(tcp_packet(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                             t, 32));  // foreign
        }
        if (i == 120) {
            capture.push_back(dns_response_packet("ads.example.com", ads2, t));
            capture.push_back(tcp_packet(ads2, kDevice, t + SimTime::millis(1), 900));
        }
    }
    return capture;
}

std::string batch_report(const std::vector<net::Packet>& packets,
                         analysis::StreamOptions options = {}) {
    return canonical_report(analysis::analyze_packets(packets, kDevice, options));
}

// ------------------------------------------------------------------ format

TEST(TvcrFormatTest, EventsModeRoundTripsRecords) {
    const auto capture = replay_capture();
    TvcrOptions options;
    options.block_records = 32;
    const Bytes tvcr = to_tvcr_bytes(capture, options);

    auto reader = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_FALSE(reader.value().has_frames());
    EXPECT_EQ(reader.value().total_records(), capture.size());
    EXPECT_EQ(reader.value().blocks().size(), (capture.size() + 31) / 32);

    std::size_t index = 0;
    for (std::size_t b = 0; b < reader.value().blocks().size(); ++b) {
        auto records = reader.value().read_block(b);
        ASSERT_TRUE(records.ok()) << records.error().message;
        EXPECT_EQ(reader.value().blocks()[b].first_index, index);
        for (const TvcrRecord& record : records.value()) {
            ASSERT_LT(index, capture.size());
            const net::Packet& original = capture[index];
            EXPECT_EQ(record.timestamp, original.timestamp);
            EXPECT_EQ(record.frame_bytes, original.data.size());
            EXPECT_EQ(record.orig_len, original.data.size());
            const auto parsed = net::parse_packet_view(original.data, original.timestamp);
            EXPECT_EQ(record.parseable, parsed.ok() && parsed.value().ip.has_value());
            if (record.parseable) {
                EXPECT_EQ(record.source, parsed.value().ip->source);
                EXPECT_EQ(record.destination, parsed.value().ip->destination);
            }
            EXPECT_TRUE(record.frame.empty());  // events mode drops frames
            ++index;
        }
    }
    EXPECT_EQ(index, capture.size());
    // Events mode must be much smaller than the pcap encoding.
    EXPECT_LT(tvcr.size() * 4, net::to_pcap_bytes(capture).size());
}

TEST(TvcrFormatTest, FramesModeRoundTripsPcapByteForByte) {
    const auto capture = replay_capture();
    TvcrOptions options;
    options.keep_frames = true;
    options.block_records = 64;
    const Bytes tvcr = to_tvcr_bytes(capture, options);

    // The export writes the stored snaplen and every orig_len, so the whole
    // pcap, file header included, must come back.
    auto reader = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    auto exported = export_tvcr_to_pcap(reader.value());
    ASSERT_TRUE(exported.ok()) << exported.error().message;
    EXPECT_TRUE(exported.value() == net::to_pcap_bytes(capture))
        << "frames-mode export changed the pcap bytes";
}

TEST(TvcrFormatTest, SnappedPcapRoundTripsThroughFramesModeByteForByte) {
    // A capture snapped on the wire: the pcap declares snaplen 96 and every
    // longer frame keeps only its first 96 bytes plus its original length.
    // pcap -> frames-mode .tvcr -> pcap must give back the same bytes, so
    // the export writes the stored snaplen and orig_len, not defaults.
    constexpr std::uint32_t kSnaplen = 96;
    ByteWriter pcap;
    net::append_pcap_file_header(pcap, kSnaplen);
    std::size_t capped = 0;
    for (const net::Packet& packet : replay_capture()) {
        const std::size_t incl = std::min<std::size_t>(packet.data.size(), kSnaplen);
        capped += incl < packet.data.size() ? 1 : 0;
        net::append_pcap_record(pcap, packet.timestamp, BytesView(packet.data.data(), incl),
                                static_cast<std::uint32_t>(packet.data.size()));
    }
    ASSERT_GT(capped, 50U);
    const Bytes original = std::move(pcap).take();
    const std::string pcap_path = ::testing::TempDir() + "tvacr_snapped.pcap";
    const std::string tvcr_path = ::testing::TempDir() + "tvacr_snapped.tvcr";
    {
        std::ofstream out(pcap_path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(original.data()),
                  static_cast<std::streamsize>(original.size()));
    }
    TvcrOptions options;
    options.keep_frames = true;
    options.block_records = 64;
    ASSERT_TRUE(transcode_pcap_to_tvcr(pcap_path, tvcr_path, options).ok());

    auto reader = TvcrReader::open(tvcr_path);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_EQ(reader.value().snaplen(), kSnaplen);
    auto exported = export_tvcr_to_pcap(reader.value());
    ASSERT_TRUE(exported.ok()) << exported.error().message;
    EXPECT_TRUE(exported.value() == original) << "frames-mode export changed the pcap bytes";
}

TEST(TvcrFormatTest, EventsModeRefusesFrameExport) {
    const Bytes tvcr = to_tvcr_bytes(replay_capture());
    auto reader = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(export_tvcr_to_pcap(reader.value()).ok());
}

TEST(TvcrFormatTest, EncodingIsByteStable) {
    const auto capture = replay_capture();
    EXPECT_EQ(to_tvcr_bytes(capture), to_tvcr_bytes(capture));
}

TEST(TvcrFormatTest, EmptyCaptureRoundTrips) {
    const Bytes tvcr = to_tvcr_bytes({});
    auto reader = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_EQ(reader.value().total_records(), 0U);
    EXPECT_TRUE(reader.value().blocks().empty());
    ReplayEngine engine(std::move(reader).value());
    auto replayed = engine.run(kDevice);
    ASSERT_TRUE(replayed.ok());
    EXPECT_EQ(canonical_report(replayed.value()), batch_report({}));
}

TEST(TvcrFormatTest, OrigLenSurvivesSnaplenTruncation) {
    // A frame captured under a snaplen keeps its original length; the
    // events column stores the difference as a varint.
    std::ostringstream out(std::ios::binary);
    TvcrWriter writer(out);
    const auto packet = tcp_packet(kDevice, Ipv4Address(23, 0, 1, 10), SimTime::millis(1), 80);
    writer.add(packet.data, packet.timestamp, static_cast<std::uint32_t>(packet.data.size() + 500));
    ASSERT_TRUE(writer.finish().ok());
    const std::string buffer = out.str();
    auto reader = TvcrReader::from_bytes(
        BytesView(reinterpret_cast<const std::uint8_t*>(buffer.data()), buffer.size()));
    ASSERT_TRUE(reader.ok());
    auto records = reader.value().read_block(0);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records.value().size(), 1U);
    EXPECT_EQ(records.value()[0].frame_bytes, packet.data.size());
    EXPECT_EQ(records.value()[0].orig_len, packet.data.size() + 500);
}

TEST(CaptureSniffTest, NamesEveryFormatByItsMagic) {
    const auto capture = replay_capture();
    const Bytes pcap = net::to_pcap_bytes(capture);
    EXPECT_EQ(sniff_capture_format(pcap), CaptureFormat::kPcap);
    const Bytes swapped = {0xA1, 0xB2, 0xC3, 0xD4};  // big-endian pcap magic
    EXPECT_EQ(sniff_capture_format(swapped), CaptureFormat::kPcap);
    EXPECT_EQ(sniff_capture_format(net::to_pcapng_bytes(capture)), CaptureFormat::kPcapng);
    EXPECT_EQ(sniff_capture_format(to_tvcr_bytes(capture)), CaptureFormat::kTvcr);
    EXPECT_EQ(sniff_capture_format(Bytes{0xDE, 0xAD, 0xBE, 0xEF}), CaptureFormat::kUnknown);
    // Fewer than four bytes name nothing, however promising they look.
    EXPECT_EQ(sniff_capture_format(BytesView(pcap.data(), 3)), CaptureFormat::kUnknown);

    // The file form reads the same four bytes; an unreadable path is kUnknown.
    const std::string path = ::testing::TempDir() + "tvacr_sniff.tvcr";
    ASSERT_TRUE(write_tvcr_file(path, capture).ok());
    EXPECT_EQ(sniff_capture_file(path), CaptureFormat::kTvcr);
    EXPECT_EQ(sniff_capture_file(path + ".missing"), CaptureFormat::kUnknown);
}

TEST(TvcrFormatTest, FinishTwiceIsAnError) {
    std::ostringstream out(std::ios::binary);
    TvcrWriter writer(out);
    EXPECT_TRUE(writer.finish().ok());
    EXPECT_FALSE(writer.finish().ok());
}

// ------------------------------------------------------------- determinism

TEST(ReplayDeterminismTest, ReplayFromBlockZeroMatchesBatchAtWorkerCounts148) {
    const auto capture = replay_capture();
    TvcrOptions tvcr_options;
    tvcr_options.block_records = 32;
    const Bytes tvcr = to_tvcr_bytes(capture, tvcr_options);

    const std::string reference = batch_report(capture);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        SCOPED_TRACE(workers);
        common::ThreadPool pool(workers);
        analysis::StreamOptions stream;
        stream.shards = workers * 2;
        stream.pool = workers > 1 ? &pool : nullptr;

        // The batch engine itself is worker-invariant...
        EXPECT_EQ(batch_report(capture, stream), reference);

        // ...and replay reproduces it byte-for-byte.
        auto reader = TvcrReader::from_bytes(tvcr);
        ASSERT_TRUE(reader.ok());
        ReplayEngine engine(std::move(reader).value());
        ReplayOptions options;
        options.stream = stream;
        auto replayed = engine.run(kDevice, options);
        ASSERT_TRUE(replayed.ok()) << replayed.error().message;
        EXPECT_EQ(canonical_report(replayed.value()), reference);
        EXPECT_EQ(engine.last_stats().records_replayed, capture.size());
    }
}

TEST(ReplayDeterminismTest, ReplayFromInteriorBlockEqualsBatchSuffix) {
    const auto capture = replay_capture();
    TvcrOptions tvcr_options;
    tvcr_options.block_records = 16;
    const Bytes tvcr = to_tvcr_bytes(capture, tvcr_options);
    auto opened = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(opened.ok());
    const std::size_t blocks = opened.value().blocks().size();
    ASSERT_GT(blocks, 3U);

    common::ThreadPool pool(4);
    for (const std::size_t from : {std::size_t{1}, blocks / 2, blocks - 1}) {
        SCOPED_TRACE(from);
        const std::uint64_t first = opened.value().blocks()[from].first_index;
        const std::vector<net::Packet> suffix(capture.begin() +
                                                  static_cast<std::ptrdiff_t>(first),
                                              capture.end());
        for (const std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
            SCOPED_TRACE(workers);
            analysis::StreamOptions stream;
            stream.shards = workers * 2;
            stream.pool = workers > 1 ? &pool : nullptr;

            auto reader = TvcrReader::from_bytes(tvcr);
            ASSERT_TRUE(reader.ok());
            ReplayEngine engine(std::move(reader).value());
            ReplayOptions options;
            options.from_block = from;
            options.stream = stream;
            auto replayed = engine.run(kDevice, options);
            ASSERT_TRUE(replayed.ok()) << replayed.error().message;
            EXPECT_EQ(canonical_report(replayed.value()), batch_report(suffix, stream));
            EXPECT_EQ(engine.last_stats().blocks_skipped, from);
        }
    }
    // Resuming past the end is an error, one block past the last is empty.
    auto reader = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(reader.ok());
    ReplayEngine engine(std::move(reader).value());
    ReplayOptions at_end;
    at_end.from_block = blocks;
    auto empty = engine.run(kDevice, at_end);
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty.value().packets_total(), 0U);
    ReplayOptions past_end;
    past_end.from_block = blocks + 1;
    EXPECT_FALSE(engine.run(kDevice, past_end).ok());
}

TEST(ReplayDeterminismTest, SinceEqualsBatchOverFilteredCapture) {
    const auto capture = replay_capture();
    TvcrOptions tvcr_options;
    tvcr_options.block_records = 16;
    const Bytes tvcr = to_tvcr_bytes(capture, tvcr_options);

    // Whole blocks before the cutoff are skipped by their time range.
    auto opened = TvcrReader::from_bytes(tvcr);
    ASSERT_TRUE(opened.ok());
    const TvcrReader& blocks = opened.value();
    ASSERT_GT(blocks.blocks().size(), 4U);
    EXPECT_EQ(blocks.first_block_at_or_after(SimTime{}), 0U);
    EXPECT_EQ(blocks.first_block_at_or_after(blocks.blocks()[2].first_ts), 2U);
    EXPECT_EQ(blocks.first_block_at_or_after(SimTime::hours(2)), blocks.blocks().size());

    for (const std::int64_t cutoff_ms : {0LL, 500LL, 1200LL, 10'000'000LL}) {
        SCOPED_TRACE(cutoff_ms);
        const SimTime since = SimTime::millis(cutoff_ms);
        std::vector<net::Packet> filtered;
        for (const auto& packet : capture) {
            if (packet.timestamp >= since) filtered.push_back(packet);
        }
        auto reader = TvcrReader::from_bytes(tvcr);
        ASSERT_TRUE(reader.ok());
        ReplayEngine engine(std::move(reader).value());
        ReplayOptions options;
        options.since = since;
        auto replayed = engine.run(kDevice, options);
        ASSERT_TRUE(replayed.ok()) << replayed.error().message;
        EXPECT_EQ(canonical_report(replayed.value()), batch_report(filtered));
        EXPECT_EQ(engine.last_stats().records_replayed, filtered.size());
    }
}

// -------------------------------------------------------------- corruption

TEST(TvcrCorruptionTest, EveryTruncationFailsCleanly) {
    TvcrOptions options;
    options.block_records = 16;
    const Bytes tvcr = to_tvcr_bytes(replay_capture(), options);
    // Sweep every prefix length (stepping through the interior, exhaustive
    // near the structural boundaries): opening must return an Error — no
    // prefix holds the end record — and never crash or succeed.
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len < tvcr.size(); len += 17) lengths.push_back(len);
    for (std::size_t back = 1; back <= 64 && back < tvcr.size(); ++back) {
        lengths.push_back(tvcr.size() - back);
    }
    for (const std::size_t len : lengths) {
        EXPECT_FALSE(TvcrReader::from_bytes(BytesView(tvcr.data(), len)).ok())
            << "prefix of " << len << " bytes parsed successfully";
    }
}

TEST(TvcrCorruptionTest, BitFlipsNeverCrashAndPayloadFlipsAreDetected) {
    TvcrOptions options;
    options.block_records = 16;
    const Bytes tvcr = to_tvcr_bytes(replay_capture(), options);

    // Flip one bit at a sweep of positions. Open + full block scan must
    // return ok-or-Error everywhere (the sanitizer lanes turn any OOB or UB
    // into a failure); the CRCs make payload corruption loudly detectable.
    for (std::size_t pos = 0; pos < tvcr.size(); pos += 13) {
        Bytes corrupt = tvcr;
        corrupt[pos] ^= 0x10;
        auto reader = TvcrReader::from_bytes(corrupt);
        if (!reader.ok()) continue;  // clean structural rejection
        for (std::size_t b = 0; b < reader.value().blocks().size(); ++b) {
            (void)reader.value().read_block(b);  // must not crash; Result either way
        }
    }

    // A flip inside the first block's stored payload is always caught by
    // the block CRC, as soon as opening walks the block.
    Bytes corrupt = tvcr;
    corrupt[kTvcrHeaderLen + kTvcrBlockHeaderLen] ^= 0x01;  // first payload byte of block 0
    auto reader = TvcrReader::from_bytes(corrupt);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.error().message.find("checksum"), std::string::npos)
        << reader.error().message;
}

TEST(TvcrCorruptionTest, FileChangedAfterOpenFailsTheBlockChecksum) {
    // A file-backed reader reads each block anew, so the CRC is checked on
    // every read, not only when the file is opened.
    TvcrOptions options;
    options.block_records = 16;
    const Bytes tvcr = to_tvcr_bytes(replay_capture(), options);
    const std::string path = ::testing::TempDir() + "tvacr_changed.tvcr";
    const auto write = [&path](const Bytes& bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    };
    write(tvcr);
    auto reader = TvcrReader::open(path);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    ASSERT_TRUE(reader.value().read_block(0).ok());
    Bytes changed = tvcr;
    changed[kTvcrHeaderLen + kTvcrBlockHeaderLen] ^= 0x01;
    write(changed);
    auto block = reader.value().read_block(0);
    ASSERT_FALSE(block.ok());
    EXPECT_EQ(block.error().message, "tvcr: block checksum mismatch");
}

/// A one-block events-mode .tvcr around a hand-built payload, with a valid
/// block CRC and end record, so only the payload decoder can object.
Bytes crafted_tvcr(const Bytes& payload, std::uint32_t records, std::int64_t first_ts_us) {
    const Bytes empty = to_tvcr_bytes({});
    ByteWriter block;
    block.u32(kTvcrBlockMagic);
    block.u32(records);
    block.u64(0);  // first_index
    block.u64(static_cast<std::uint64_t>(first_ts_us));
    block.u64(static_cast<std::uint64_t>(first_ts_us));
    block.u32(static_cast<std::uint32_t>(payload.size()));  // uncompressed
    block.u32(static_cast<std::uint32_t>(payload.size()));  // stored
    block.u8(0);                                            // codec: stored
    block.u32(crc32(payload, crc32(block.view())));
    block.raw(BytesView(payload));
    ByteWriter end;
    end.u32(kTvcrEndMagic);
    end.u64(records);
    end.u32(crc32(end.view()));

    ByteWriter out;
    out.raw(BytesView(empty.data(), kTvcrHeaderLen));
    out.raw(block.view());
    out.raw(end.view());
    return std::move(out).take();
}

/// The payload of one unparseable record of `frame_bytes` bytes.
Bytes one_record_payload(std::uint64_t ts_delta, std::uint64_t frame_bytes,
                         std::uint64_t orig_extra) {
    ByteWriter payload;
    put_varint(payload, 1);  // records
    payload.u8(0);           // kind: unparseable
    put_varint(payload, ts_delta);
    put_varint(payload, frame_bytes);
    put_varint(payload, orig_extra);
    put_varint(payload, 0);  // address table
    return std::move(payload).take();
}

/// Decodes the only block of a crafted file; the file itself must open.
Result<std::vector<TvcrRecord>> decode_crafted(const Bytes& tvcr) {
    auto reader = TvcrReader::from_bytes(tvcr);
    if (!reader.ok()) return make_error("open: " + reader.error().message);
    return reader.value().read_block(0);
}

TEST(TvcrCorruptionTest, CraftedTimestampDeltaOverflowIsRejected) {
    const std::int64_t near_max = std::numeric_limits<std::int64_t>::max() - 5;
    const auto sane = decode_crafted(crafted_tvcr(one_record_payload(zigzag_encode(5), 10, 0), 1,
                                                  near_max));
    ASSERT_TRUE(sane.ok()) << sane.error().message;
    EXPECT_EQ(sane.value()[0].timestamp.as_micros(), std::numeric_limits<std::int64_t>::max());

    const auto up = decode_crafted(crafted_tvcr(one_record_payload(zigzag_encode(6), 10, 0), 1,
                                                near_max));
    ASSERT_FALSE(up.ok());
    EXPECT_EQ(up.error().message, "tvcr: timestamp delta overflows");
    const std::int64_t near_min = std::numeric_limits<std::int64_t>::min() + 5;
    const auto down = decode_crafted(crafted_tvcr(one_record_payload(zigzag_encode(-6), 10, 0), 1,
                                                  near_min));
    ASSERT_FALSE(down.ok());
    EXPECT_EQ(down.error().message, "tvcr: timestamp delta overflows");
}

TEST(TvcrCorruptionTest, CraftedOrigLenOverflowIsRejected) {
    constexpr std::uint64_t kRoom = std::numeric_limits<std::uint32_t>::max() - 10;
    const auto sane = decode_crafted(crafted_tvcr(one_record_payload(0, 10, kRoom), 1, 0));
    ASSERT_TRUE(sane.ok()) << sane.error().message;
    EXPECT_EQ(sane.value()[0].orig_len, std::numeric_limits<std::uint32_t>::max());

    const auto wrapped = decode_crafted(crafted_tvcr(one_record_payload(0, 10, kRoom + 1), 1, 0));
    ASSERT_FALSE(wrapped.ok());
    EXPECT_EQ(wrapped.error().message, "tvcr: original frame length overflows");
}

TEST(TvcrCorruptionTest, ForeignMagicsAreRejected) {
    EXPECT_FALSE(TvcrReader::from_bytes(BytesView{}).ok());
    const Bytes pcap = net::to_pcap_bytes(replay_capture());
    EXPECT_FALSE(TvcrReader::from_bytes(pcap).ok());
    Bytes wrong_version = to_tvcr_bytes(replay_capture());
    wrong_version[5] = 0x7F;  // version field, big-endian low byte
    EXPECT_FALSE(TvcrReader::from_bytes(wrong_version).ok());
}

TEST(TvcrCorruptionTest, FileReaderReportsMissingAndTruncatedFiles) {
    EXPECT_FALSE(TvcrReader::open("/nonexistent/capture.tvcr").ok());
    EXPECT_FALSE(ReplayEngine::open("/nonexistent/capture.tvcr").ok());
}

// ----------------------------------------------------------- writer failures

/// A streambuf that accepts `budget` bytes, then fails every write.
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
            return wrote;
        }
        budget_ -= static_cast<std::size_t>(n);
        return n;
    }

  private:
    std::size_t budget_;
};

TEST(TvcrWriterFailure, MidStreamFailureSurfacesInFinish) {
    // Regression: flush_block/finish never looked at the stream, so a disk
    // filling up mid-capture yielded a file with a valid-looking prefix and
    // a reported success. The failure must latch and finish() must refuse
    // to certify the file with an end record.
    const auto capture = replay_capture();
    FailingBuf buf(kTvcrHeaderLen + 200);  // room for the header + part of a block
    std::ostream out(&buf);
    TvcrOptions options;
    options.block_records = 16;
    TvcrWriter writer(out, options);
    ASSERT_TRUE(writer.status().ok());
    for (const auto& packet : capture) writer.add(packet);
    EXPECT_FALSE(writer.finish().ok());
}

TEST(TvcrWriterFailure, FailedHeaderWriteLatchesImmediately) {
    FailingBuf buf(0);
    std::ostream out(&buf);
    TvcrWriter writer(out);
    EXPECT_FALSE(writer.status().ok());
    EXPECT_FALSE(writer.finish().ok());
}

TEST(TvcrWriterFailure, UnfinishedWriterLeavesAHardReadError) {
    // A writer that never reached finish() (crash, kill -9) leaves no end
    // record; opening such a file must be a hard Error, never a silently
    // short capture. This pins the gateway's shutdown contract from the
    // reader side.
    std::ostringstream stream;
    {
        TvcrOptions options;
        options.block_records = 16;  // force complete blocks onto the stream
        TvcrWriter writer(stream, options);
        for (const auto& packet : replay_capture()) writer.add(packet);
        // no finish()
    }
    const std::string s = stream.str();
    const Bytes unfinished(s.begin(), s.end());
    EXPECT_GT(unfinished.size(), kTvcrHeaderLen);  // data was written...
    EXPECT_FALSE(TvcrReader::from_bytes(unfinished).ok());  // ...but unreadable
}

}  // namespace
}  // namespace tvacr::replay
