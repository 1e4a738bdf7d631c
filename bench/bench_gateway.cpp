// bench_gateway — ingest throughput and live-snapshot latency for the
// resident gateway, plus its determinism gate.
//
//   bench_gateway [--out BENCH_gateway.json]
//   TVACR_BENCH_PACKETS=N   workload size (default 200000)
//
// The workload is the same deterministic synthetic capture bench_analyze
// uses, written to a pcap file. The bench tails the finished file through
// gateway::StreamSource exactly as tvacr_gatewayd does, measuring:
//   ingest    records/sec through poll -> ring -> drain (end-to-end, the
//             daemon's steady-state path)
//   snapshot  p50/p95 latency of an incremental mid-stream snapshot (the
//             control protocol's SNAPSHOT verb) taken every ~10% of the
//             stream — the price of asking a live daemon for attribution.
// The final snapshot must be byte-identical to the serial oracle
// (tests/oracle) over the same capture (exit non-zero otherwise) — the same
// gate the unit suite and the CI integration job enforce, here at bench
// scale. Wall-clock readings are benchmark instrumentation, not simulation
// state — hence the lint allowance.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/traffic.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dns/message.hpp"
#include "gateway/gateway.hpp"
#include "gateway/source.hpp"
#include "net/pcap.hpp"
#include "oracle/serial.hpp"
#include "replay/replay.hpp"

using namespace tvacr;

namespace {

const net::Ipv4Address kDevice(192, 168, 4, 23);
const net::Ipv4Address kResolver(9, 9, 9, 9);

double now_seconds() {
    using clock = std::chrono::steady_clock;  // tvacr-lint: allow(no-wallclock) bench timing
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
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

/// Same synthetic workload as bench_analyze; returns total records written.
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
        const auto d =
            static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(domains) - 1));
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

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--out BENCH_gateway.json]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_gateway.json";
    const auto positionals = common::parse_flags(argc, argv, {{"--out", out_path}}, usage);
    if (!positionals.empty()) return usage(argv[0]);
    const std::uint64_t packets = static_cast<std::uint64_t>(
        common::parse_env_int("TVACR_BENCH_PACKETS", 200000, 1, 1LL << 40));
    const std::size_t kDomains = 48;
    const std::string pcap_path = "bench_gateway_workload.pcap";

    const std::uint64_t total = generate_workload(pcap_path, packets, kDomains);

    // Serial reference: the determinism gate the gateway must hit.
    std::string reference;
    {
        auto loaded = net::read_pcap_file(pcap_path);
        if (!loaded.ok()) {
            std::fprintf(stderr, "read failed: %s\n", loaded.error().message.c_str());
            return 1;
        }
        reference = replay::canonical_report(oracle::analyze_serial(loaded.value(), kDevice));
    }

    gateway::GatewayOptions options;
    options.device_ip = kDevice;
    options.ring_capacity = 1 << 16;
    gateway::Gateway gw(options);

    auto source = gateway::StreamSource::open_file(pcap_path);
    if (!source.ok()) {
        std::fprintf(stderr, "open failed: %s\n", source.error().message.c_str());
        return 1;
    }

    std::vector<double> snapshot_ms;
    const std::uint64_t snapshot_every = total / 10 + 1;
    std::uint64_t next_snapshot = snapshot_every;
    const double t0 = now_seconds();
    while (true) {
        const auto status = source.value().poll(gw, 1 << 20);
        if (!status.ok()) {
            std::fprintf(stderr, "poll failed: %s\n", status.error().message.c_str());
            return 1;
        }
        gw.drain_all();
        if (gw.drained() >= next_snapshot) {
            const double s0 = now_seconds();
            (void)gw.snapshot();
            snapshot_ms.push_back((now_seconds() - s0) * 1e3);
            next_snapshot += snapshot_every;
        }
        if (status.value() != gateway::SourceStatus::kProgress) break;
    }
    if (auto finalized = source.value().finalize(gw); !finalized.ok()) {
        std::fprintf(stderr, "finalize failed: %s\n", finalized.error().message.c_str());
        return 1;
    }
    gw.drain_all();
    const double ingest_seconds = now_seconds() - t0;
    const double records_per_sec = static_cast<double>(gw.drained()) / ingest_seconds;

    if (!gw.conservation_ok() || gw.dropped() != 0) {
        std::fprintf(stderr, "accounting violated\n");
        return 1;
    }
    std::printf("%.2fs ingest, %.0f records/s, snapshot p50 %.1f ms p95 %.1f ms\n",
                ingest_seconds, records_per_sec, percentile(snapshot_ms, 0.5),
                percentile(snapshot_ms, 0.95));

    const bool identical = replay::canonical_report(gw.snapshot()) == reference;
    if (!identical) std::fprintf(stderr, "DIVERGENCE: gateway snapshot != batch report\n");

    analysis::JsonWriter json;
    json.begin_object();
    json.key("bench").value("gateway");
    json.key("workload").begin_object();
    json.key("packets").value(static_cast<std::uint64_t>(total));
    json.key("domains").value(static_cast<std::uint64_t>(kDomains));
    json.end_object();
    json.key("identical").value(identical);
    json.key("ingest_seconds").value(ingest_seconds);
    json.key("records_per_sec").value(records_per_sec);
    json.key("snapshot_p50_ms").value(percentile(snapshot_ms, 0.5));
    json.key("snapshot_p95_ms").value(percentile(snapshot_ms, 0.95));
    json.end_object();
    std::ofstream out(out_path, std::ios::binary);
    out << std::move(json).take() << "\n";
    std::remove(pcap_path.c_str());

    if (!identical) return 1;
    std::printf("gateway snapshot byte-identical to batch\n");
    return 0;
}
