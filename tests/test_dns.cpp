// Tests for the DNS substrate: name codec (incl. compression), message
// codec, and the authoritative zone/resolver.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/zone.hpp"

namespace tvacr::dns {
namespace {

// -------------------------------------------------------------------- names

TEST(DomainNameTest, ParseNormalizesCase) {
    const auto name = DomainName::parse("ACR-EU-PRD.SamsungCloud.TV");
    ASSERT_TRUE(name.ok());
    EXPECT_EQ(name.value().to_string(), "acr-eu-prd.samsungcloud.tv");
    EXPECT_EQ(name.value().labels().size(), 3U);
}

TEST(DomainNameTest, RootAndTrailingDot) {
    EXPECT_TRUE(DomainName::parse("").value().is_root());
    EXPECT_TRUE(DomainName::parse(".").value().is_root());
    EXPECT_EQ(DomainName::parse("example.com.").value().to_string(), "example.com");
}

TEST(DomainNameTest, RejectsOversizedLabels) {
    EXPECT_FALSE(DomainName::parse(std::string(64, 'a') + ".com").ok());
    EXPECT_FALSE(DomainName::parse("a..b").ok());
    // Total name length > 255.
    std::string big;
    for (int i = 0; i < 50; ++i) big += "abcdef.";
    big += "com";
    EXPECT_FALSE(DomainName::parse(big).ok());
}

TEST(DomainNameTest, SubdomainMatching) {
    const auto parent = DomainName::parse("alphonso.tv").value();
    EXPECT_TRUE(DomainName::parse("eu-acr7.alphonso.tv").value().is_within(parent));
    EXPECT_TRUE(parent.is_within(parent));
    EXPECT_FALSE(DomainName::parse("alphonso.tv.evil.com").value().is_within(parent));
}

TEST(DomainNameTest, ReverseOf) {
    const auto name = DomainName::reverse_of(net::Ipv4Address(203, 0, 113, 7));
    EXPECT_EQ(name.to_string(), "7.113.0.203.in-addr.arpa");
}

TEST(NameCodecTest, UncompressedRoundTrip) {
    const auto name = DomainName::parse("log-config.samsungacr.com").value();
    ByteWriter w;
    encode_name_uncompressed(name, w);
    ByteReader r(w.view());
    const auto decoded = decode_name(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), name);
    EXPECT_TRUE(r.at_end());
}

TEST(NameCodecTest, CompressionReusesSuffixes) {
    const auto first = DomainName::parse("a.example.com").value();
    const auto second = DomainName::parse("b.example.com").value();
    ByteWriter w;
    CompressionMap offsets;
    encode_name(first, w, offsets);
    const std::size_t first_size = w.size();
    encode_name(second, w, offsets);
    // Second name needs only "b" + a 2-byte pointer: 1+1+2 = 4 bytes.
    EXPECT_EQ(w.size() - first_size, 4U);

    ByteReader r(w.view());
    EXPECT_EQ(decode_name(r).value(), first);
    EXPECT_EQ(decode_name(r).value(), second);
}

TEST(NameCodecTest, RejectsPointerLoops) {
    // A name that points at itself: 0xC000 at offset 0.
    const Bytes evil = {0xC0, 0x00};
    ByteReader r(evil);
    EXPECT_FALSE(decode_name(r).ok());
}

TEST(NameCodecTest, RejectsTruncatedLabel) {
    const Bytes truncated = {0x05, 'a', 'b'};
    ByteReader r(truncated);
    EXPECT_FALSE(decode_name(r).ok());
}

TEST(NameCodecTest, PointerTargetAtWindowEdgeCompressesAndDecodes) {
    // 0x3FFF is the last offset a 14-bit compression pointer can address.
    // A name starting exactly there is still compressible; its deeper
    // suffixes (past the window) must not be recorded as pointer targets.
    const auto name = DomainName::parse("edge.example.com").value();
    ByteWriter w;
    const Bytes padding(0x3FFF, 0);
    w.raw(BytesView(padding.data(), padding.size()));
    CompressionMap offsets;
    encode_name(name, w, offsets);
    ASSERT_EQ(offsets.count("edge.example.com"), 1U);
    EXPECT_EQ(offsets.at("edge.example.com"), 0x3FFF);
    // "example.com" / "com" start past 0x3FFF: not pointer-addressable.
    EXPECT_EQ(offsets.count("example.com"), 0U);
    EXPECT_EQ(offsets.count("com"), 0U);

    const std::size_t second_at = w.size();
    encode_name(name, w, offsets);
    EXPECT_EQ(w.size() - second_at, 2U);  // the 0xFFFF pointer, nothing else

    ByteReader r(w.view());
    ASSERT_TRUE(r.seek(second_at).ok());
    const auto decoded = decode_name(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), name);
}

TEST(NameCodecTest, SuffixPastPointerWindowFallsBackUncompressed) {
    // Everything past 0x3FFF is unaddressable: encoding the same name twice
    // out there must produce two full (identical-size) encodings, not a
    // pointer to an offset the wire format cannot express.
    const auto name = DomainName::parse("far.example.com").value();
    ByteWriter w;
    const Bytes padding(0x4000, 0);
    w.raw(BytesView(padding.data(), padding.size()));
    CompressionMap offsets;
    encode_name(name, w, offsets);
    const std::size_t first_size = w.size() - 0x4000;
    EXPECT_TRUE(offsets.empty());
    const std::size_t second_at = w.size();
    encode_name(name, w, offsets);
    EXPECT_EQ(w.size() - second_at, first_size);  // full re-encoding

    ByteReader r(w.view());
    ASSERT_TRUE(r.seek(0x4000).ok());
    EXPECT_EQ(decode_name(r).value(), name);
    EXPECT_EQ(decode_name(r).value(), name);
}

TEST(NameCodecTest, RejectsForwardPointer) {
    // Pointers may only refer to *prior* data (RFC 1035 §4.1.4); a pointer
    // at offset 0 aiming past itself must be rejected, not chased.
    const Bytes forward = {0xC0, 0x10, 0x01, 'a', 0x00};
    ByteReader r(forward);
    EXPECT_FALSE(decode_name(r).ok());
}

TEST(NameCodecTest, PointerChainsHonourHopLimit) {
    // A chain of backward pointers: each one points at the previous, the
    // first at a real label. Short chains decode; 17 hops trip the limit.
    ByteWriter w;
    w.u8(1);
    w.raw(std::string_view("a"));
    w.u8(0);  // "a." at offset 0, 3 bytes
    for (int i = 0; i < 17; ++i) {
        const std::size_t target = i == 0 ? 0 : 3 + 2 * static_cast<std::size_t>(i - 1);
        w.u16(static_cast<std::uint16_t>(0xC000 | target));
    }
    {
        ByteReader r(w.view());
        ASSERT_TRUE(r.seek(3 + 2 * 4).ok());  // 5 hops: within the limit
        const auto decoded = decode_name(r);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value().to_string(), "a");
    }
    {
        ByteReader r(w.view());
        ASSERT_TRUE(r.seek(3 + 2 * 16).ok());  // 17 hops: one too many
        EXPECT_FALSE(decode_name(r).ok());
    }
}

// --------------------------------------------------------------- name cache

/// Decodes the name at `offset` twice — once without a cache, once with
/// `cache` — and requires identical outcomes: same ok/error, same error
/// message, same name, and the reader parked at the same position.
void expect_cache_transparent(BytesView wire, std::size_t offset, NameCache& cache) {
    ByteReader plain(wire);
    ByteReader cached(wire);
    ASSERT_TRUE(plain.seek(offset).ok());
    ASSERT_TRUE(cached.seek(offset).ok());
    const auto a = decode_name(plain);
    const auto b = decode_name(cached, &cache);
    ASSERT_EQ(a.ok(), b.ok()) << "offset " << offset;
    if (!a.ok()) {
        EXPECT_EQ(a.error().message, b.error().message);
        return;
    }
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(plain.position(), cached.position());
}

TEST(NameCacheTest, ColdAndWarmDecodesMatchUncachedAtEveryOffset) {
    // A message-like arena: a base name, a prefixed pointer, a bare pointer
    // chain, and a two-label prefix — the shapes DnsMessage::decode meets.
    ByteWriter w;
    w.u8(7);
    w.raw(std::string_view("example"));
    w.u8(3);
    w.raw(std::string_view("com"));
    w.u8(0);  // offset 0: "example.com", 13 bytes
    w.u8(3);
    w.raw(std::string_view("www"));
    w.u16(0xC000);  // offset 13: "www" -> ptr(0), 6 bytes
    w.u16(0xC000 | 13);  // offset 19: bare pointer to offset 13
    w.u8(1);
    w.raw(std::string_view("a"));
    w.u8(1);
    w.raw(std::string_view("b"));
    w.u16(0xC000 | 13);  // offset 21: "a.b" -> ptr(13)

    NameCache cache;
    // Two passes: the first fills the cache (cold), the second must return
    // memoized results that are still indistinguishable from fresh decodes.
    for (int pass = 0; pass < 2; ++pass) {
        for (const std::size_t offset : {0U, 13U, 19U, 21U}) {
            expect_cache_transparent(w.view(), offset, cache);
        }
    }
}

TEST(NameCacheTest, SpliceReplaysHopLimit) {
    // "a." at 0, then a 17-deep pointer chain. A cold decode at hop depth 16
    // succeeds and memoizes; the depth-17 decode must fail with the same
    // error whether it walks the chain or splices a memoized tail.
    ByteWriter w;
    w.u8(1);
    w.raw(std::string_view("a"));
    w.u8(0);
    for (int i = 0; i < 17; ++i) {
        const std::size_t target = i == 0 ? 0 : 3 + 2 * static_cast<std::size_t>(i - 1);
        w.u16(static_cast<std::uint16_t>(0xC000 | target));
    }
    NameCache cache;
    expect_cache_transparent(w.view(), 3 + 2 * 15, cache);  // 16 hops: fine, warms cache
    expect_cache_transparent(w.view(), 3 + 2 * 16, cache);  // 17 hops: same error spliced
}

TEST(NameCacheTest, SpliceReplaysOctetLimit) {
    // Base name of two 63-octet labels (129 octets with length bytes); a
    // prefix of two more such labels plus a pointer pushes the assembled
    // name past 255 octets. The octet check must fire identically when the
    // tail is spliced from the cache instead of re-walked.
    const std::string big(63, 'x');
    ByteWriter w;
    w.u8(63);
    w.raw(std::string_view(big));
    w.u8(63);
    w.raw(std::string_view(big));
    w.u8(0);  // offset 0: 129 bytes
    const std::size_t prefix_at = 129;
    w.u8(63);
    w.raw(std::string_view(big));
    w.u8(63);
    w.raw(std::string_view(big));
    w.u16(0xC000);  // offset 129: two labels + ptr(0): 257 octets total

    NameCache cache;
    expect_cache_transparent(w.view(), 0, cache);  // warms the tail
    expect_cache_transparent(w.view(), prefix_at, cache);
    // Sanity: the overflow really is the outcome, not just equivalence.
    ByteReader r(w.view());
    ASSERT_TRUE(r.seek(prefix_at).ok());
    NameCache warm;
    ByteReader warmer(w.view());
    (void)decode_name(warmer, &warm);
    const auto spliced = decode_name(r, &warm);
    ASSERT_FALSE(spliced.ok());
    EXPECT_EQ(spliced.error().message, "decode_name: name exceeds 255 octets");
}

TEST(NameCacheTest, InvalidPointersFailIdenticallyWhenWarm) {
    // Forward pointers and self-loops must be rejected before any cache
    // lookup, so a warm cache cannot resurrect an invalid wire name.
    ByteWriter w;
    w.u8(1);
    w.raw(std::string_view("a"));
    w.u8(0);             // offset 0: "a.", decodes fine
    w.u16(0xC000 | 3);   // offset 3: points at itself
    w.u16(0xC000 | 9);   // offset 5: forward pointer
    NameCache cache;
    expect_cache_transparent(w.view(), 0, cache);
    expect_cache_transparent(w.view(), 3, cache);
    expect_cache_transparent(w.view(), 5, cache);
}

// ----------------------------------------------------------------- messages

TEST(DnsMessageTest, QueryRoundTrip) {
    const auto name = DomainName::parse("acr0.samsungcloudsolution.com").value();
    const DnsMessage query = make_query(0x1234, name, RecordType::kA);
    const auto decoded = DnsMessage::decode(query.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), query);
    EXPECT_FALSE(decoded.value().is_response);
    EXPECT_TRUE(decoded.value().recursion_desired);
}

TEST(DnsMessageTest, ResponseWithAllRecordTypesRoundTrips) {
    const auto name = DomainName::parse("svc.example.com").value();
    DnsMessage query = make_query(7, name, RecordType::kA);
    std::vector<ResourceRecord> answers;
    answers.push_back(ResourceRecord::cname(name, DomainName::parse("edge.example.net").value()));
    answers.push_back(ResourceRecord::a(DomainName::parse("edge.example.net").value(),
                                        net::Ipv4Address(198, 51, 100, 7), 60));
    DnsMessage response = make_response(query, answers, ResponseCode::kNoError);
    response.additionals.push_back(
        ResourceRecord::txt(DomainName::parse("meta.example.com").value(), "v=1"));
    response.authorities.push_back(ResourceRecord::ptr(
        DomainName::reverse_of(net::Ipv4Address(198, 51, 100, 7)),
        DomainName::parse("edge.example.net").value()));

    const auto decoded = DnsMessage::decode(response.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), response);
}

TEST(DnsMessageTest, CompressionShrinksRepeatedNames) {
    const auto name = DomainName::parse("very-long-subdomain.acr-service.example.com").value();
    DnsMessage query = make_query(1, name, RecordType::kA);
    DnsMessage response = make_response(
        query, {ResourceRecord::a(name, net::Ipv4Address(1, 2, 3, 4))}, ResponseCode::kNoError);
    const Bytes wire = response.encode();
    // The answer's name must be a 2-byte pointer, not a repeat of the
    // 44-byte name.
    ByteWriter uncompressed_estimate;
    encode_name_uncompressed(name, uncompressed_estimate);
    EXPECT_LT(wire.size(), 12 + 2 * uncompressed_estimate.size() + 14);
}

TEST(DnsMessageTest, RejectsTruncatedHeader) {
    const Bytes junk = {0x00, 0x01, 0x00};
    EXPECT_FALSE(DnsMessage::decode(junk).ok());
}

TEST(DnsMessageTest, RcodeSurvivesRoundTrip) {
    const auto name = DomainName::parse("missing.example.com").value();
    const DnsMessage query = make_query(9, name, RecordType::kA);
    const DnsMessage nx = make_response(query, {}, ResponseCode::kNxDomain);
    const auto decoded = DnsMessage::decode(nx.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().rcode, ResponseCode::kNxDomain);
    EXPECT_TRUE(decoded.value().is_response);
}

// --------------------------------------------------------------------- zone

Zone sample_zone() {
    Zone zone;
    zone.add_a("eu-acr7.alphonso.tv", net::Ipv4Address(185, 76, 9, 10));
    zone.add_cname("www.alphonso.tv", "eu-acr7.alphonso.tv");
    zone.add_ptr(net::Ipv4Address(185, 76, 9, 10), "ams-edge-1.alphonso.tv");
    zone.add_txt("alphonso.tv", "acr backend");
    return zone;
}

TEST(ZoneTest, DirectALookup) {
    const Zone zone = sample_zone();
    const auto name = DomainName::parse("eu-acr7.alphonso.tv").value();
    const auto records = zone.lookup(name, RecordType::kA);
    ASSERT_EQ(records.size(), 1U);
    EXPECT_EQ(std::get<net::Ipv4Address>(records[0].rdata), net::Ipv4Address(185, 76, 9, 10));
}

TEST(ZoneTest, CnameChainIsChased) {
    const Zone zone = sample_zone();
    const auto name = DomainName::parse("www.alphonso.tv").value();
    const auto records = zone.lookup(name, RecordType::kA);
    ASSERT_EQ(records.size(), 2U);  // CNAME then A
    EXPECT_EQ(records[0].type, RecordType::kCname);
    EXPECT_EQ(records[1].type, RecordType::kA);
    EXPECT_EQ(zone.resolve_a(name), net::Ipv4Address(185, 76, 9, 10));
}

TEST(ZoneTest, CnameLoopTerminates) {
    Zone zone;
    zone.add_cname("a.example.com", "b.example.com");
    zone.add_cname("b.example.com", "a.example.com");
    const auto records =
        zone.lookup(DomainName::parse("a.example.com").value(), RecordType::kA);
    EXPECT_LE(records.size(), 9U);  // bounded by the chase depth limit
    EXPECT_FALSE(zone.resolve_a(DomainName::parse("a.example.com").value()).has_value());
}

TEST(ZoneTest, AnswerDistinguishesNxdomainFromNodata) {
    const Zone zone = sample_zone();
    const auto nx = zone.answer(
        make_query(1, DomainName::parse("nope.example.com").value(), RecordType::kA));
    EXPECT_EQ(nx.rcode, ResponseCode::kNxDomain);

    const auto nodata =
        zone.answer(make_query(2, DomainName::parse("alphonso.tv").value(), RecordType::kA));
    EXPECT_EQ(nodata.rcode, ResponseCode::kNoError);
    EXPECT_TRUE(nodata.answers.empty());
}

TEST(ZoneTest, AnswerEchoesQuestionAndId) {
    const Zone zone = sample_zone();
    const auto query =
        make_query(0xBEEF, DomainName::parse("eu-acr7.alphonso.tv").value(), RecordType::kA);
    const auto response = zone.answer(query);
    EXPECT_EQ(response.id, 0xBEEF);
    ASSERT_EQ(response.questions.size(), 1U);
    EXPECT_EQ(response.questions[0], query.questions[0]);
    EXPECT_TRUE(response.is_response);
    ASSERT_EQ(response.answers.size(), 1U);
}

TEST(ZoneTest, PtrLookupForReverseDns) {
    const Zone zone = sample_zone();
    const auto reverse = DomainName::reverse_of(net::Ipv4Address(185, 76, 9, 10));
    const auto records = zone.lookup(reverse, RecordType::kPtr);
    ASSERT_EQ(records.size(), 1U);
    EXPECT_EQ(std::get<DomainName>(records[0].rdata).to_string(), "ams-edge-1.alphonso.tv");
}

TEST(ZoneTest, RemoveSupportsDomainRotation) {
    Zone zone = sample_zone();
    const auto old_name = DomainName::parse("eu-acr7.alphonso.tv").value();
    zone.remove(old_name);
    zone.add_a("eu-acr8.alphonso.tv", net::Ipv4Address(185, 76, 9, 11));
    EXPECT_FALSE(zone.resolve_a(old_name).has_value());
    EXPECT_TRUE(zone.resolve_a(DomainName::parse("eu-acr8.alphonso.tv").value()).has_value());
}

TEST(ZoneTest, FormErrOnEmptyQuestion) {
    const Zone zone = sample_zone();
    DnsMessage empty;
    EXPECT_EQ(zone.answer(empty).rcode, ResponseCode::kFormErr);
}

}  // namespace
}  // namespace tvacr::dns
