// Tests for the traffic-analysis layer: DNS harvesting, per-domain
// attribution, time series / burst / period inference, cumulative curves,
// the ACR-domain identifier and report rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/acr_detect.hpp"
#include "analysis/cdf.hpp"
#include "analysis/report.hpp"
#include "analysis/stream.hpp"
#include "analysis/timeseries.hpp"
#include "analysis/traffic.hpp"
#include "common/thread_pool.hpp"
#include "net/pcap.hpp"
#include "net/pcapng.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dns/message.hpp"
#include "oracle/serial.hpp"

namespace tvacr::analysis {
namespace {

using net::Ipv4Address;

const Ipv4Address kDevice(192, 168, 4, 23);
const Ipv4Address kResolver(9, 9, 9, 9);
const Ipv4Address kServer(23, 0, 1, 10);

net::Packet dns_response_packet(const std::string& name, Ipv4Address address, SimTime t) {
    const auto domain = dns::DomainName::parse(name).value();
    const auto query = make_query(7, domain, dns::RecordType::kA);
    const auto response =
        make_response(query, {dns::ResourceRecord::a(domain, address)},
                      dns::ResponseCode::kNoError);
    const net::FrameBuilder builder(net::MacAddress::local(2), net::MacAddress::local(1));
    return builder.udp(t, net::Endpoint{kResolver, dns::kDnsPort},
                       net::Endpoint{kDevice, 40000}, response.encode());
}

net::Packet tcp_packet(Ipv4Address src, Ipv4Address dst, SimTime t, std::size_t payload_size) {
    const net::FrameBuilder builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const std::uint16_t src_port = src == kDevice ? 50000 : 443;
    const std::uint16_t dst_port = dst == kDevice ? 50000 : 443;
    return builder.tcp(t, net::Endpoint{src, src_port}, net::Endpoint{dst, dst_port}, 1, 1,
                       net::TcpFlags::kAck, Bytes(payload_size, 0xEE));
}

// ------------------------------------------------------------------ DnsMap

/// Feeds one captured packet to `map` as the engines do: the UDP payload
/// of a datagram from the DNS source port, nothing for anything else.
void harvest(DnsMap& map, const net::Packet& packet) {
    const auto parsed = net::parse_packet(packet).value();
    if (parsed.udp && parsed.udp->source_port == dns::kDnsPort) {
        map.ingest_payload(parsed.payload, parsed.timestamp);
    }
}

TEST(DnsMapTest, HarvestsAddressMappings) {
    DnsMap map;
    harvest(map, dns_response_packet("acr-eu-prd.samsungcloud.tv", kServer, SimTime{}));
    EXPECT_EQ(map.responses_seen(), 1U);
    ASSERT_NE(map.mapping_of(kServer), nullptr);
    EXPECT_EQ(*map.mapping_of(kServer), "acr-eu-prd.samsungcloud.tv");
    EXPECT_EQ(map.mapping_of(Ipv4Address(1, 1, 1, 1)), nullptr);
}

TEST(DnsMapTest, FirstMappingWins) {
    DnsMap map;
    harvest(map, dns_response_packet("first.example.com", kServer, SimTime{}));
    harvest(map, dns_response_packet("second.example.com", kServer, SimTime{}));
    EXPECT_EQ(*map.mapping_of(kServer), "first.example.com");
    EXPECT_EQ(map.queried_names().size(), 2U);
}

TEST(DnsMapTest, IgnoresNonDnsTraffic) {
    DnsMap map;
    harvest(map, tcp_packet(kDevice, kServer, SimTime{}, 100));
    // A payload that is not a DNS response is ignored too.
    map.ingest_payload(Bytes(100, 0xEE), SimTime{});
    EXPECT_EQ(map.responses_seen(), 0U);
    EXPECT_EQ(map.mapping_count(), 0U);
}

// --------------------------------------------------------- CaptureAnalyzer

TEST(CaptureAnalyzerTest, AttributesTrafficByDomainAndDirection) {
    std::vector<net::Packet> capture;
    capture.push_back(
        dns_response_packet("acr-eu-prd.samsungcloud.tv", kServer, SimTime::millis(1)));
    capture.push_back(tcp_packet(kDevice, kServer, SimTime::millis(10), 1000));  // up
    capture.push_back(tcp_packet(kServer, kDevice, SimTime::millis(20), 300));   // down
    const auto analyzer = analyze_packets(capture, kDevice);

    const auto* stats = analyzer.find("acr-eu-prd.samsungcloud.tv");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->packets, 2U);
    EXPECT_EQ(stats->bytes_up, 1000U + 54U);
    EXPECT_EQ(stats->bytes_down, 300U + 54U);
    EXPECT_EQ(stats->events.size(), 2U);
    EXPECT_TRUE(stats->events[0].device_to_server);
    EXPECT_FALSE(stats->events[1].device_to_server);
    EXPECT_NEAR(analyzer.kilobytes_for("acr-eu-prd.samsungcloud.tv"), 1.408, 0.001);
}

TEST(CaptureAnalyzerTest, UnresolvedIpsGetPlaceholderDomain) {
    const auto analyzer =
        analyze_packets({tcp_packet(kDevice, Ipv4Address(8, 8, 4, 4), SimTime{}, 64)}, kDevice);
    const auto domains = analyzer.domains_by_bytes();
    ASSERT_EQ(domains.size(), 1U);
    ASSERT_NE(analyzer.find("unresolved:8.8.4.4"), nullptr);
    EXPECT_EQ(analyzer.find("unresolved:8.8.4.4")->packets, 1U);
}

TEST(CaptureAnalyzerTest, SortsByBytes) {
    std::vector<net::Packet> capture;
    capture.push_back(
        dns_response_packet("small.example.com", Ipv4Address(23, 0, 1, 1), SimTime{}));
    capture.push_back(dns_response_packet("big.example.com", Ipv4Address(23, 0, 2, 1), SimTime{}));
    capture.push_back(tcp_packet(kDevice, Ipv4Address(23, 0, 1, 1), SimTime{}, 10));
    capture.push_back(tcp_packet(kDevice, Ipv4Address(23, 0, 2, 1), SimTime{}, 5000));
    const auto analyzer = analyze_packets(capture, kDevice);
    const auto sorted = analyzer.domains_by_bytes();
    ASSERT_GE(sorted.size(), 2U);
    EXPECT_EQ(sorted[0]->domain, "big.example.com");
}

TEST(CaptureAnalyzerTest, EqualByteDomainsRankAlphabetically) {
    // Regression: domains_by_bytes sorted with std::sort and no tie-break.
    // With enough equal-byte domains (introsort permutes equal elements once
    // past its 16-element insertion-sort threshold) the ranking depended on
    // the sort's internal partitioning — nondeterministic across standard
    // libraries, and a byte-diff in every rendered table. Ties now break
    // alphabetically.
    std::vector<net::Packet> capture;
    const int kTies = 24;
    for (int d = 0; d < kTies; ++d) {
        char name[32];
        std::snprintf(name, sizeof(name), "tie%02d.example.com", d);
        const Ipv4Address server(23, 1, 0, static_cast<std::uint8_t>(d + 1));
        capture.push_back(dns_response_packet(name, server, SimTime::millis(d)));
        capture.push_back(tcp_packet(kDevice, server, SimTime::millis(100 + d), 400));
    }
    const auto analyzer = analyze_packets(capture, kDevice);
    std::vector<std::string> ranked;
    for (const auto* stats : analyzer.domains_by_bytes()) {
        if (stats->domain.rfind("tie", 0) == 0) ranked.push_back(stats->domain);
    }
    ASSERT_EQ(ranked.size(), static_cast<std::size_t>(kTies));
    std::vector<std::string> expected = ranked;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ranked, expected);
}

// -------------------------------------------------------------- timeseries

std::vector<PacketEvent> periodic_events(SimTime period, int count, std::uint32_t size = 100,
                                         int packets_per_burst = 3) {
    std::vector<PacketEvent> events;
    for (int i = 0; i < count; ++i) {
        for (int j = 0; j < packets_per_burst; ++j) {
            events.push_back(PacketEvent{period * i + SimTime::millis(j * 5), size, true});
        }
    }
    return events;
}

TEST(TimeSeriesTest, BucketizeCountsAndBytes) {
    const auto events = periodic_events(SimTime::seconds(1), 10);
    const auto packets = bucketize(events, SimTime{}, SimTime::seconds(10), SimTime::seconds(1),
                                   SeriesMetric::kPackets);
    ASSERT_EQ(packets.values.size(), 10U);
    for (const double v : packets.values) EXPECT_DOUBLE_EQ(v, 3.0);

    const auto bytes = bucketize(events, SimTime{}, SimTime::seconds(10), SimTime::seconds(1),
                                 SeriesMetric::kBytes);
    for (const double v : bytes.values) EXPECT_DOUBLE_EQ(v, 300.0);
}

TEST(TimeSeriesTest, BucketizeRespectsWindow) {
    const auto events = periodic_events(SimTime::seconds(1), 100);
    const auto series = bucketize(events, SimTime::seconds(50), SimTime::seconds(10),
                                  SimTime::seconds(1), SeriesMetric::kPackets);
    ASSERT_EQ(series.values.size(), 10U);
    EXPECT_DOUBLE_EQ(series.values[0], 3.0);
    EXPECT_EQ(series.time_of(3), SimTime::seconds(53));
}

TEST(TimeSeriesTest, FindBurstsGroupsByGap) {
    const auto events = periodic_events(SimTime::seconds(15), 8);
    const auto bursts = find_bursts(events, SimTime::seconds(5));
    ASSERT_EQ(bursts.size(), 8U);
    EXPECT_EQ(bursts[0].packets, 3U);
    EXPECT_EQ(bursts[0].bytes, 300U);
}

TEST(TimeSeriesTest, CadenceOfRegularTraffic) {
    const auto bursts = find_bursts(periodic_events(SimTime::seconds(15), 20),
                                    SimTime::seconds(5));
    const auto cadence = burst_cadence(bursts);
    EXPECT_EQ(cadence.bursts, 20U);
    EXPECT_NEAR(cadence.mean_interval_s, 15.0, 0.01);
    EXPECT_LT(cadence.cv, 0.01);
}

TEST(TimeSeriesTest, CadenceOfIrregularTrafficHasHighCv) {
    std::vector<PacketEvent> events;
    Rng rng(5);
    SimTime t;
    for (int i = 0; i < 30; ++i) {
        t += SimTime::seconds(rng.uniform(5, 120));
        events.push_back(PacketEvent{t, 100, true});
    }
    const auto cadence = burst_cadence(find_bursts(events, SimTime::seconds(4)));
    EXPECT_GT(cadence.cv, 0.35);
}

TEST(TimeSeriesTest, DominantPeriodRecoversCadence) {
    const auto events = periodic_events(SimTime::seconds(15), 40);
    const double period = dominant_period_seconds(events, SimTime::minutes(10),
                                                  SimTime::seconds(5), SimTime::minutes(2));
    // The autocorrelation peak lands on the fundamental or a small multiple.
    EXPECT_NEAR(std::fmod(period, 15.0), 0.0, 0.6);
    EXPECT_GT(period, 10.0);
}

TEST(TimeSeriesTest, EmptyInputsAreSafe) {
    EXPECT_TRUE(find_bursts({}, SimTime::seconds(1)).empty());
    EXPECT_EQ(burst_cadence({}).bursts, 0U);
    EXPECT_EQ(dominant_period_seconds({}, SimTime::minutes(1), SimTime::seconds(1),
                                      SimTime::seconds(30)),
              0.0);
}

// --------------------------------------------------------------------- cdf

TEST(CdfTest, CumulativeBytesMonotoneAndNormalized) {
    const auto events = periodic_events(SimTime::seconds(10), 6, 500);
    const auto curve = cumulative_bytes(events);
    ASSERT_EQ(curve.size(), events.size());
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].bytes, curve[i - 1].bytes);
        EXPECT_GE(curve[i].fraction, curve[i - 1].fraction);
    }
    EXPECT_DOUBLE_EQ(curve.back().fraction, 1.0);
    EXPECT_EQ(curve.back().bytes, 6U * 3U * 500U);
}

TEST(CdfTest, ResampleStepsHoldLastValue) {
    std::vector<PacketEvent> events = {{SimTime::seconds(10), 100, true},
                                       {SimTime::seconds(30), 300, true}};
    const auto resampled = resample(cumulative_bytes(events), SimTime{}, SimTime::seconds(40),
                                    SimTime::seconds(10));
    ASSERT_EQ(resampled.size(), 5U);
    EXPECT_EQ(resampled[0].bytes, 0U);
    EXPECT_EQ(resampled[1].bytes, 100U);
    EXPECT_EQ(resampled[2].bytes, 100U);
    EXPECT_EQ(resampled[3].bytes, 400U);
    EXPECT_EQ(resampled[4].bytes, 400U);
}

TEST(CdfTest, IdenticalCurvesHaveZeroGap) {
    const auto events = periodic_events(SimTime::seconds(5), 10);
    const auto curve = cumulative_bytes(events);
    EXPECT_DOUBLE_EQ(
        max_fraction_gap(curve, curve, SimTime{}, SimTime::minutes(1), SimTime::seconds(1)), 0.0);
}

TEST(CdfTest, DisjointCurvesHaveLargeGap) {
    std::vector<PacketEvent> early = {{SimTime::seconds(1), 100, true}};
    std::vector<PacketEvent> late = {{SimTime::seconds(59), 100, true}};
    const double gap = max_fraction_gap(cumulative_bytes(early), cumulative_bytes(late),
                                        SimTime{}, SimTime::minutes(1), SimTime::seconds(1));
    EXPECT_GT(gap, 0.9);
}

// -------------------------------------------------------------- acr_detect

TEST(AcrDetectTest, BlocklistMatchesSuffixes) {
    EXPECT_TRUE(is_blocklisted("eu-acr7.alphonso.tv"));
    EXPECT_TRUE(is_blocklisted("log-config.samsungacr.com"));
    EXPECT_TRUE(is_blocklisted("samsungads.com"));
    EXPECT_FALSE(is_blocklisted("netflix.com"));
    EXPECT_FALSE(is_blocklisted("alphonso.tv.evil.example"));
}

CaptureAnalyzer analyzer_with(const std::string& domain, Ipv4Address server,
                              const std::vector<PacketEvent>& events) {
    std::vector<net::Packet> capture{dns_response_packet(domain, server, SimTime{})};
    for (const auto& event : events) {
        capture.push_back(tcp_packet(event.device_to_server ? kDevice : server,
                                     event.device_to_server ? server : kDevice, event.timestamp,
                                     event.frame_bytes));
    }
    return analyze_packets(capture, kDevice);
}

TEST(AcrDetectTest, RegularAcrNamedDomainIsFlagged) {
    const auto analyzer = analyzer_with("eu-acr3.alphonso.tv", kServer,
                                        periodic_events(SimTime::seconds(15), 30));
    const AcrDomainIdentifier identifier;
    const auto domains = identifier.acr_domains(analyzer, nullptr, SimTime::minutes(10));
    ASSERT_EQ(domains.size(), 1U);
    EXPECT_EQ(domains[0], "eu-acr3.alphonso.tv");
}

TEST(AcrDetectTest, AdDomainWithoutAcrNameIsNotFlagged) {
    const auto analyzer = analyzer_with("samsungads.com", kServer,
                                        periodic_events(SimTime::seconds(15), 30));
    const AcrDomainIdentifier identifier;
    EXPECT_TRUE(identifier.acr_domains(analyzer, nullptr, SimTime::minutes(10)).empty());
}

TEST(AcrDetectTest, AcrNameWithoutCorroborationIsNotFlagged) {
    // "acr" in the name but irregular contact and not on any blocklist.
    std::vector<PacketEvent> events;
    Rng rng(3);
    SimTime t;
    for (int i = 0; i < 12; ++i) {
        t += SimTime::seconds(rng.uniform(3, 300));
        events.push_back(PacketEvent{t, 200, true});
    }
    const auto analyzer = analyzer_with("acrobat-updates.example.com", kServer, events);
    const AcrDomainIdentifier identifier;
    EXPECT_TRUE(identifier.acr_domains(analyzer, nullptr, SimTime::hours(1)).empty());
}

TEST(AcrDetectTest, OptOutDifferentialConfirmsAndRefutes) {
    const auto opted_in = analyzer_with("eu-acr3.alphonso.tv", kServer,
                                        periodic_events(SimTime::seconds(15), 30));
    // Control capture where the domain is gone: differential positive.
    const CaptureAnalyzer empty_control = analyze_packets({}, kDevice);
    const AcrDomainIdentifier identifier;
    const auto find_acr = [](const std::vector<AcrFinding>& findings) -> const AcrFinding* {
        for (const auto& finding : findings) {
            if (finding.domain == "eu-acr3.alphonso.tv") return &finding;
        }
        return nullptr;
    };
    const auto findings =
        identifier.identify(opted_in, &empty_control, SimTime::minutes(10));
    const AcrFinding* confirmed = find_acr(findings);
    ASSERT_NE(confirmed, nullptr);
    ASSERT_TRUE(confirmed->optout_differential.has_value());
    EXPECT_TRUE(*confirmed->optout_differential);
    EXPECT_TRUE(confirmed->verdict);

    // Control capture where the domain persists: differential refutes.
    const auto still_there = analyzer_with("eu-acr3.alphonso.tv", kServer,
                                           periodic_events(SimTime::seconds(15), 30));
    const auto refuted_findings =
        identifier.identify(opted_in, &still_there, SimTime::minutes(10));
    const AcrFinding* refuted = find_acr(refuted_findings);
    ASSERT_NE(refuted, nullptr);
    EXPECT_FALSE(*refuted->optout_differential);
    EXPECT_FALSE(refuted->verdict);
}

// ------------------------------------------------------------------ report

TEST(ReportTest, TableRenderAlignsColumns) {
    Table table;
    table.title = "demo";
    table.header = {"Domain", "Idle", "Antenna"};
    table.rows = {{"eu-acrX.alphonso.tv", "264.7", "4759.7"}, {"x.com", "-", "1.0"}};
    const std::string text = table.render();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("eu-acrX.alphonso.tv"), std::string::npos);
    EXPECT_NE(text.find("4759.7"), std::string::npos);
    // All data lines have equal length (column alignment).
    const auto lines = split(trim(text), '\n');
    ASSERT_GE(lines.size(), 4U);
    EXPECT_EQ(lines[1].size(), lines[3].size() + 0U);  // rule vs row may differ; header == rows
}

TEST(ReportTest, TableCsv) {
    Table table;
    table.header = {"a", "b"};
    table.rows = {{"1", "2"}};
    EXPECT_EQ(table.to_csv(), "a,b\n1,2\n");
}

TEST(ReportTest, SparklinePeaksVisible) {
    BucketSeries series;
    series.bucket_width = SimTime::seconds(1);
    series.values.assign(200, 0.0);
    series.values[50] = 10.0;
    const std::string line = sparkline(series, 100);
    EXPECT_FALSE(line.empty());
    EXPECT_NE(line.find("█"), std::string::npos);  // the burst survives downsampling
}

TEST(ReportTest, SeriesCsvHasHeaderAndRows) {
    BucketSeries series;
    series.bucket_width = SimTime::seconds(1);
    series.values = {1.0, 2.0};
    const auto csv = series_to_csv(series);
    EXPECT_EQ(split(trim(csv), '\n').size(), 3U);
}

TEST(ReportTest, RenderFigureListsPanelsWithSharedAxis) {
    BucketSeries series;
    series.start = SimTime::minutes(5);
    series.bucket_width = SimTime::seconds(1);
    series.values.assign(60, 1.0);
    const std::string figure =
        render_figure("Figure X", {{"Linear", series}, {"Idle", series}});
    EXPECT_NE(figure.find("Figure X"), std::string::npos);
    EXPECT_NE(figure.find("Linear"), std::string::npos);
    EXPECT_NE(figure.find("Idle"), std::string::npos);
    EXPECT_NE(figure.find("+300s -> +360s"), std::string::npos);
}

TEST(ReportTest, SparklineOfEmptySeriesIsEmpty) {
    EXPECT_TRUE(sparkline(BucketSeries{}).empty());
    EXPECT_EQ(render_figure("empty", {}), "empty\n");
}

TEST(ReportTest, CumulativeCsv) {
    const auto csv = cumulative_to_csv({{SimTime::seconds(1), 100, 0.5}});
    EXPECT_NE(csv.find("time_s,bytes,fraction"), std::string::npos);
    EXPECT_NE(csv.find("1,100,0.5"), std::string::npos);
}

// ------------------------------------------------- streaming sharded engine

/// Field-by-field identity of two analyzers' observable state: totals, DNS
/// harvest, and every domain's counters, address order, timestamps, and
/// full event stream. This is the contract the sharded engine must meet.
void expect_same_analysis(const CaptureAnalyzer& serial, const CaptureAnalyzer& sharded) {
    EXPECT_EQ(serial.packets_total(), sharded.packets_total());
    EXPECT_EQ(serial.unparseable(), sharded.unparseable());
    EXPECT_EQ(serial.dns().responses_seen(), sharded.dns().responses_seen());
    EXPECT_EQ(serial.dns().mapping_count(), sharded.dns().mapping_count());
    const auto lhs_names = serial.dns().queried_names();
    const auto rhs_names = sharded.dns().queried_names();
    ASSERT_EQ(lhs_names.size(), rhs_names.size());
    for (std::size_t n = 0; n < lhs_names.size(); ++n) {
        EXPECT_EQ(lhs_names[n].name, rhs_names[n].name);
        EXPECT_EQ(lhs_names[n].first_seen, rhs_names[n].first_seen);
        EXPECT_EQ(lhs_names[n].addresses, rhs_names[n].addresses);
    }
    const auto lhs = serial.domains_by_bytes();
    const auto rhs = sharded.domains_by_bytes();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t d = 0; d < lhs.size(); ++d) {
        SCOPED_TRACE(lhs[d]->domain);
        EXPECT_EQ(lhs[d]->domain, rhs[d]->domain);
        EXPECT_EQ(lhs[d]->addresses, rhs[d]->addresses);
        EXPECT_EQ(lhs[d]->packets, rhs[d]->packets);
        EXPECT_EQ(lhs[d]->bytes_up, rhs[d]->bytes_up);
        EXPECT_EQ(lhs[d]->bytes_down, rhs[d]->bytes_down);
        EXPECT_EQ(lhs[d]->first_seen, rhs[d]->first_seen);
        EXPECT_EQ(lhs[d]->last_seen, rhs[d]->last_seen);
        ASSERT_EQ(lhs[d]->events.size(), rhs[d]->events.size());
        for (std::size_t e = 0; e < lhs[d]->events.size(); ++e) {
            EXPECT_EQ(lhs[d]->events[e].timestamp, rhs[d]->events[e].timestamp);
            EXPECT_EQ(lhs[d]->events[e].frame_bytes, rhs[d]->events[e].frame_bytes);
            EXPECT_EQ(lhs[d]->events[e].device_to_server, rhs[d]->events[e].device_to_server);
        }
    }
}

/// A capture exercising the temporal DNS corners: traffic to a server
/// before its mapping is born (must stay unresolved), a response that
/// resolves its own source address (the serial path harvests DNS before
/// attributing, so that very packet is attributed by name), a second
/// address joining a domain late, and foreign traffic not involving the
/// device at all.
std::vector<net::Packet> temporal_capture() {
    const Ipv4Address late(23, 5, 0, 1);
    const Ipv4Address second(23, 5, 0, 2);
    std::vector<net::Packet> capture;
    capture.push_back(tcp_packet(kDevice, late, SimTime::millis(10), 500));  // pre-birth
    capture.push_back(tcp_packet(late, kDevice, SimTime::millis(20), 700));  // pre-birth
    capture.push_back(dns_response_packet("late.example.com", late, SimTime::millis(30)));
    capture.push_back(tcp_packet(kDevice, late, SimTime::millis(40), 900));  // resolved now
    // The resolver's own response packet resolves the resolver's address.
    capture.push_back(dns_response_packet("resolver.example.com", kResolver,
                                          SimTime::millis(50)));
    capture.push_back(dns_response_packet("late.example.com", second, SimTime::millis(60)));
    capture.push_back(tcp_packet(second, kDevice, SimTime::millis(70), 1100));
    capture.push_back(tcp_packet(Ipv4Address(10, 9, 9, 9), Ipv4Address(10, 9, 9, 10),
                                 SimTime::millis(80), 64));  // foreign: ignored
    capture.push_back(net::Packet{SimTime::millis(90), Bytes{0x01, 0x02}});  // unparseable
    for (int i = 0; i < 200; ++i) {
        const bool up = i % 3 != 0;
        const auto remote = i % 2 == 0 ? late : second;
        capture.push_back(up ? tcp_packet(kDevice, remote, SimTime::millis(100 + i), 100 + i)
                             : tcp_packet(remote, kDevice, SimTime::millis(100 + i), 100 + i));
    }
    return capture;
}

TEST(StreamingAnalyzerTest, MatchesSerialOnTemporalDnsCorners) {
    const auto capture = temporal_capture();
    const CaptureAnalyzer serial = oracle::analyze_serial(capture, kDevice);

    // Pre-birth traffic stays unresolved even though the mapping exists by
    // the end of the capture — in both engines.
    ASSERT_NE(serial.find("unresolved:23.5.0.1"), nullptr);
    EXPECT_EQ(serial.find("unresolved:23.5.0.1")->packets, 2U);
    ASSERT_NE(serial.find("resolver.example.com"), nullptr);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
        SCOPED_TRACE(shards);
        StreamOptions options;
        options.shards = shards;
        expect_same_analysis(serial, analyze_packets(capture, kDevice, options));
    }
}

TEST(StreamingAnalyzerTest, ResultIndependentOfPoolAndShardCount) {
    const auto capture = temporal_capture();
    common::ThreadPool pool(3);
    StreamOptions pooled;
    pooled.pool = &pool;
    pooled.shards = 5;
    StreamOptions inline_one;
    inline_one.shards = 1;
    expect_same_analysis(analyze_packets(capture, kDevice, inline_one),
                         analyze_packets(capture, kDevice, pooled));
}

TEST(StreamingAnalyzerTest, GoldenCapturesAreByteIdenticalToSerialPath) {
    // The checked-in golden captures are real end-to-end simulator output;
    // replaying them through the streaming reader + sharded engine must
    // reproduce the serial analysis exactly, for any shard/worker count.
    // (The impaired sibling capture moved to an events-mode .tvcr golden;
    // test_replay.cpp and FaultGolden cover its streaming equivalence.)
    const std::string dir = TVACR_GOLDEN_DIR;
    common::ThreadPool pool(4);
    const char* name = "/samsung_uk_linear_2min_seed7.pcap";
    const auto packets = net::read_pcap_file(dir + name);
    ASSERT_TRUE(packets.ok());
    const CaptureAnalyzer serial = oracle::analyze_serial(packets.value(), kDevice);

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
        SCOPED_TRACE(shards);
        StreamOptions options;
        options.shards = shards;
        options.pool = shards > 1 ? &pool : nullptr;
        auto streamed = analyze_pcap_stream(dir + name, kDevice, options);
        ASSERT_TRUE(streamed.ok());
        expect_same_analysis(serial, streamed.value());
    }
}

TEST(StreamingAnalyzerTest, PcapngFallbackPathMatchesSerial) {
    // tvacr_analyze's pcapng input takes a different route from plain pcap:
    // the capture is materialized by the pcapng decoder and then fed to the
    // sharded engine. That fallback path was previously untested. Round-trip
    // the temporal-corner capture through pcapng bytes and require the same
    // byte-identity the pcap path guarantees, at several shard counts.
    const auto capture = temporal_capture();
    const Bytes wire = net::to_pcapng_bytes(capture);
    const auto decoded = net::from_pcapng_bytes(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_EQ(decoded.value().size(), capture.size());

    const CaptureAnalyzer serial = oracle::analyze_serial(capture, kDevice);
    common::ThreadPool pool(4);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
        SCOPED_TRACE(shards);
        StreamOptions options;
        options.shards = shards;
        options.pool = shards > 1 ? &pool : nullptr;
        expect_same_analysis(serial, analyze_packets(decoded.value(), kDevice, options));
    }
}

}  // namespace
}  // namespace tvacr::analysis
