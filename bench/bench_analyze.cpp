// bench_analyze — throughput/latency/memory benchmark for the streaming
// capture analysis pipeline against the serial in-memory path.
//
//   bench_analyze [--out BENCH_analyze.json]
//
// The workload is a deterministic synthetic capture (seeded Rng; DNS
// responses are injected mid-stream, so remotes that send before their
// mapping is born are attributed to "unresolved:<ip>" first). It is
// generated in chunks and appended to a pcap file on disk, so the
// generator itself never holds the full capture — that keeps the peak-RSS
// proxy honest: the streaming pipeline runs first and its ru_maxrss
// reading is unpolluted by a materialized packet vector.
//
// Two pipelines, same file, same device:
//   baseline:  read file -> from_pcap_bytes materializes vector<Packet>
//              -> the serial oracle (tests/oracle, oracle::analyze_serial)
//   streaming: net::PcapReader -> StreamingCaptureAnalyzer (zero-copy
//              parse, each packet attributed as it is read; finish()
//              only hands the result over)
// Results must be byte-identical (the process exits non-zero otherwise);
// throughput, per-stage p50/p95 latency and the RSS proxy land in a
// machine-readable BENCH_*.json. Wall-clock readings here are benchmark
// instrumentation, not simulation state — hence the lint allowances.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/stream.hpp"
#include "analysis/traffic.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dns/message.hpp"
#include "net/pcap.hpp"
#include "oracle/serial.hpp"

using namespace tvacr;

namespace {

const net::Ipv4Address kDevice(192, 168, 4, 23);
const net::Ipv4Address kResolver(9, 9, 9, 9);

double now_seconds() {
    using clock = std::chrono::steady_clock;  // tvacr-lint: allow(no-wallclock) bench timing
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

long rss_proxy_kb() {
    // ru_maxrss is the process-lifetime peak (monotonic), so stage ordering
    // matters: the streaming pipeline is measured before anything
    // materializes the capture.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

net::Packet dns_response(const std::string& name, net::Ipv4Address address, SimTime t) {
    const auto domain = dns::DomainName::parse(name).value();
    const auto query = make_query(7, domain, dns::RecordType::kA);
    const auto response = make_response(query, {dns::ResourceRecord::a(domain, address)},
                                        dns::ResponseCode::kNoError);
    const net::FrameBuilder builder(net::MacAddress::local(2), net::MacAddress::local(1));
    return builder.udp(t, net::Endpoint{kResolver, dns::kDnsPort}, net::Endpoint{kDevice, 40000},
                       response.encode());
}

/// Writes the synthetic workload pcap chunk-by-chunk; returns total packets.
std::uint64_t generate_workload(const std::string& path, std::uint64_t total_packets,
                                std::size_t domains) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    const net::FrameBuilder up_builder(net::MacAddress::local(1), net::MacAddress::local(2));
    const net::FrameBuilder down_builder(net::MacAddress::local(2), net::MacAddress::local(1));
    Rng rng(0x5EED5EEDULL);

    std::vector<net::Ipv4Address> servers;
    servers.reserve(domains);
    for (std::size_t d = 0; d < domains; ++d) {
        servers.emplace_back(23, 0, static_cast<std::uint8_t>(d / 200),
                             static_cast<std::uint8_t>(d % 200 + 1));
    }
    // Each domain's DNS response is staggered across the first half of the
    // capture, so traffic to a server before its mapping is born must land
    // under unresolved:<ip> — exactly the serial path's temporal semantics.
    std::vector<std::uint64_t> dns_at(domains);
    for (std::size_t d = 0; d < domains; ++d) {
        dns_at[d] = d * (total_packets / 2) / std::max<std::size_t>(domains, 1);
    }

    std::vector<net::Packet> chunk;
    chunk.reserve(10000);
    std::uint64_t written = 0;
    bool first_chunk = true;
    const auto flush = [&] {
        Bytes bytes = net::to_pcap_bytes(chunk);
        const std::size_t skip = first_chunk ? 0 : net::kPcapGlobalHeaderLen;
        file.write(reinterpret_cast<const char*>(bytes.data() + skip),
                   static_cast<std::streamsize>(bytes.size() - skip));
        first_chunk = false;
        chunk.clear();
    };

    std::size_t next_dns = 0;
    for (std::uint64_t i = 0; i < total_packets; ++i) {
        const SimTime t = SimTime::millis(static_cast<std::int64_t>(i));
        while (next_dns < domains && dns_at[next_dns] <= i) {
            char name[64];
            std::snprintf(name, sizeof(name), "svc%03zu.bench.acr.example", next_dns);
            chunk.push_back(dns_response(name, servers[next_dns], t));
            ++next_dns;
            ++written;
        }
        const std::int64_t last_domain = static_cast<std::int64_t>(domains) - 1;
        const auto d = static_cast<std::size_t>(rng.uniform(0, last_domain));
        const auto payload = static_cast<std::size_t>(rng.uniform(120, 1300));
        const bool up = rng.chance(0.45);
        const net::Endpoint device{kDevice, 50000};
        const net::Endpoint server{servers[d], 443};
        chunk.push_back(up ? up_builder.tcp(t, device, server, 1, 1, net::TcpFlags::kAck,
                                            Bytes(payload, 0xEE))
                           : down_builder.tcp(t, server, device, 1, 1, net::TcpFlags::kAck,
                                              Bytes(payload, 0xEE)));
        ++written;
        if (chunk.size() >= 10000) flush();
    }
    if (!chunk.empty() || first_chunk) flush();
    return written;
}

/// Canonical byte string of an analyzer's observable output: every
/// per-domain counter, the address list in first-seen order, and an event
/// checksum folding each event's timestamp, size and direction (so
/// reordered events cannot cancel out).
std::string summarize(const analysis::CaptureAnalyzer& analyzer) {
    std::string out = std::to_string(analyzer.packets_total()) + "/" +
                      std::to_string(analyzer.unparseable()) + "\n";
    for (const auto* stats : analyzer.domains_by_bytes()) {
        std::uint64_t fold = splitmix64(stats->events.size());
        for (const auto& event : stats->events) {
            fold = splitmix64(fold ^ static_cast<std::uint64_t>(event.timestamp.as_millis()));
            fold = splitmix64(fold ^ event.frame_bytes);
            fold = splitmix64(fold ^ (event.device_to_server ? 1 : 0));
        }
        out += stats->domain + " pkts=" + std::to_string(stats->packets) +
               " up=" + std::to_string(stats->bytes_up) +
               " down=" + std::to_string(stats->bytes_down) +
               " first=" + std::to_string(stats->first_seen.as_millis()) +
               " last=" + std::to_string(stats->last_seen.as_millis()) + " addrs=";
        for (const auto& address : stats->addresses) out += address.to_string() + ",";
        out += " events=" + std::to_string(fold) + "\n";
    }
    return out;
}

struct StageStats {
    std::vector<double> ms;
    [[nodiscard]] double p50() const { return percentile(ms, 0.5); }
    [[nodiscard]] double p95() const { return percentile(ms, 0.95); }
};

void write_stage(analysis::JsonWriter& json, const char* name, const StageStats& stage) {
    json.key(name).begin_object();
    json.key("p50_ms").value(stage.p50());
    json.key("p95_ms").value(stage.p95());
    json.end_object();
}

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--out BENCH_analyze.json]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_analyze.json";
    const auto positionals = common::parse_flags(argc, argv, {{"--out", out_path}}, usage);
    if (!positionals.empty()) return usage(argv[0]);
    const std::uint64_t packets = static_cast<std::uint64_t>(
        common::parse_env_int("TVACR_BENCH_PACKETS", 200000, 1, 1LL << 40));
    const std::size_t kDomains = 48;
    const int repeats = 5;
    const std::string pcap_path = "bench_analyze_workload.pcap";

    const std::uint64_t total = generate_workload(pcap_path, packets, kDomains);
    std::uintmax_t pcap_bytes = 0;
    {
        std::ifstream f(pcap_path, std::ios::binary | std::ios::ate);
        pcap_bytes = static_cast<std::uintmax_t>(f.tellg());
    }
    std::printf("workload: %llu packets, %zu domains, %.1f MB pcap\n",
                static_cast<unsigned long long>(total), kDomains,
                static_cast<double>(pcap_bytes) / 1e6);

    // --- Streaming pipeline first (keeps the RSS peak meaningful) ----------
    StageStats stream_ingest;
    StageStats stream_finish;
    StageStats stream_total;
    std::string stream_summary;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = now_seconds();
        auto reader = net::PcapReader::open(pcap_path);
        if (!reader.ok()) {
            std::fprintf(stderr, "open failed: %s\n", reader.error().message.c_str());
            return 1;
        }
        analysis::StreamingCaptureAnalyzer analyzer(kDevice);
        while (true) {
            auto record = reader.value().next();
            if (!record.ok()) {
                std::fprintf(stderr, "read failed: %s\n", record.error().message.c_str());
                return 1;
            }
            if (!record.value().has_value()) break;
            analyzer.ingest(record.value()->frame, record.value()->timestamp);
        }
        const double t1 = now_seconds();
        const auto result = analyzer.finish();
        const double t2 = now_seconds();
        stream_ingest.ms.push_back((t1 - t0) * 1e3);
        stream_finish.ms.push_back((t2 - t1) * 1e3);
        stream_total.ms.push_back((t2 - t0) * 1e3);
        if (r == 0) stream_summary = summarize(result);
    }
    const long rss_after_stream = rss_proxy_kb();

    // --- Serial in-memory baseline -----------------------------------------
    StageStats base_materialize;
    StageStats base_attribute;
    StageStats base_total;
    std::string base_summary;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = now_seconds();
        auto loaded = net::read_pcap_file(pcap_path);
        if (!loaded.ok()) {
            std::fprintf(stderr, "baseline read failed: %s\n", loaded.error().message.c_str());
            return 1;
        }
        const double t1 = now_seconds();
        const analysis::CaptureAnalyzer analyzer = oracle::analyze_serial(loaded.value(), kDevice);
        const double t2 = now_seconds();
        base_materialize.ms.push_back((t1 - t0) * 1e3);
        base_attribute.ms.push_back((t2 - t1) * 1e3);
        base_total.ms.push_back((t2 - t0) * 1e3);
        if (r == 0) base_summary = summarize(analyzer);
    }
    const long rss_after_baseline = rss_proxy_kb();

    const bool identical = stream_summary == base_summary;
    const double stream_pps = static_cast<double>(total) / (stream_total.p50() / 1e3);
    const double base_pps = static_cast<double>(total) / (base_total.p50() / 1e3);
    const double speedup = stream_pps / base_pps;

    std::printf("baseline:  %10.0f pkts/s  (materialize p50 %.1f ms, attribute p50 %.1f ms)\n",
                base_pps, base_materialize.p50(), base_attribute.p50());
    std::printf("streaming: %10.0f pkts/s  (ingest p50 %.1f ms, finish p50 %.1f ms)\n",
                stream_pps, stream_ingest.p50(), stream_finish.p50());
    std::printf("speedup:   %.2fx   rss-proxy: %ld kB after streaming, %ld kB after baseline\n",
                speedup, rss_after_stream, rss_after_baseline);
    std::printf("identical: %s\n", identical ? "yes" : "NO — STREAMING DIVERGED");

    analysis::JsonWriter json;
    json.begin_object();
    json.key("bench").value("analyze");
    json.key("workload").begin_object();
    json.key("packets").value(static_cast<std::uint64_t>(total));
    json.key("domains").value(static_cast<std::uint64_t>(kDomains));
    json.key("pcap_bytes").value(static_cast<std::uint64_t>(pcap_bytes));
    json.end_object();
    json.key("repeats").value(repeats);
    json.key("baseline").begin_object();
    json.key("packets_per_sec").value(base_pps);
    write_stage(json, "materialize", base_materialize);
    write_stage(json, "attribute", base_attribute);
    write_stage(json, "total", base_total);
    json.end_object();
    json.key("streaming").begin_object();
    json.key("packets_per_sec").value(stream_pps);
    write_stage(json, "ingest", stream_ingest);
    write_stage(json, "finish", stream_finish);
    write_stage(json, "total", stream_total);
    json.end_object();
    json.key("speedup").value(speedup);
    json.key("rss_proxy_kb").begin_object();
    json.key("after_streaming").value(static_cast<std::int64_t>(rss_after_stream));
    json.key("after_baseline").value(static_cast<std::int64_t>(rss_after_baseline));
    json.end_object();
    json.key("identical").value(identical);
    json.end_object();

    std::ofstream out(out_path, std::ios::trunc);
    out << std::move(json).take() << "\n";
    std::printf("wrote %s\n", out_path.c_str());

    std::remove(pcap_path.c_str());
    return identical ? 0 : 1;
}
