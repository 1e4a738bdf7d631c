// bench_replay — transcode throughput, compression ratio, and cold-vs-resumed
// replay latency for the .tvcr record/replay format.
//
//   bench_replay [--out BENCH_replay.json]
//
// The workload is the same deterministic synthetic capture bench_analyze
// uses (seeded Rng, 48 domains, DNS responses staggered through the first
// half), written as a pcap. The bench then:
//   transcode  pcap -> events-mode .tvcr and pcap -> frames-mode .tvcr,
//              measuring MB/s over the pcap input and the size ratio of
//              each output. Events mode must shrink the artifact >= 10x
//              (the fingerprint payloads it drops are incompressible) —
//              the process exits non-zero if it does not.
//   cold       open the .tvcr and replay the whole capture (block 0) into
//              the streaming analyzer.
//   resumed    replay only the last ~10% of blocks from an open reader —
//              the "analysis woke up mid-capture" path block-granular
//              resume exists for.
// The cold replay's canonical report must equal the batch engine's report
// over the original pcap byte-for-byte (exit non-zero otherwise): the same
// determinism contract tests/test_replay.cpp and the CI replay job enforce.
// Wall-clock readings are benchmark instrumentation, not simulation state —
// hence the lint allowance.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/stream.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dns/message.hpp"
#include "net/pcap.hpp"
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

/// Same synthetic workload as bench_analyze: chunked pcap writes, DNS
/// births staggered across the first half, pseudorandom (incompressible)
/// TCP payloads — the case the events-mode design is built around.
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
    std::fprintf(stderr, "usage: %s [--out BENCH_replay.json]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_replay.json";
    const auto positionals = common::parse_flags(argc, argv, {{"--out", out_path}}, usage);
    if (!positionals.empty()) return usage(argv[0]);
    const std::uint64_t packets = static_cast<std::uint64_t>(
        common::parse_env_int("TVACR_BENCH_PACKETS", 200000, 1, 1LL << 40));
    const std::size_t kDomains = 48;
    const int repeats = 5;
    const std::string pcap_path = "bench_replay_workload.pcap";
    const std::string tvcr_path = "bench_replay_workload.tvcr";
    const std::string frames_path = "bench_replay_workload.frames.tvcr";

    const std::uint64_t total = generate_workload(pcap_path, packets, kDomains);

    // --- Transcode: pcap -> events-mode and frames-mode .tvcr --------------
    StageStats transcode_ms;
    replay::TranscodeStats events_stats{};
    for (int r = 0; r < repeats; ++r) {
        const double t0 = now_seconds();
        auto stats = replay::transcode_pcap_to_tvcr(pcap_path, tvcr_path);
        const double t1 = now_seconds();
        if (!stats.ok()) {
            std::fprintf(stderr, "transcode failed: %s\n", stats.error().message.c_str());
            return 1;
        }
        events_stats = stats.value();
        transcode_ms.ms.push_back((t1 - t0) * 1e3);
    }
    replay::TvcrOptions frames_options;
    frames_options.keep_frames = true;
    auto frames_stats = replay::transcode_pcap_to_tvcr(pcap_path, frames_path, frames_options);
    if (!frames_stats.ok()) {
        std::fprintf(stderr, "frames transcode failed: %s\n",
                     frames_stats.error().message.c_str());
        return 1;
    }

    const double transcode_mbps = static_cast<double>(events_stats.input_bytes) / 1e6 /
                                  (transcode_ms.p50() / 1e3);
    const double events_ratio = static_cast<double>(events_stats.input_bytes) /
                                static_cast<double>(events_stats.output_bytes);
    const double frames_ratio = static_cast<double>(frames_stats.value().input_bytes) /
                                static_cast<double>(frames_stats.value().output_bytes);
    std::printf("workload:  %llu packets, %.1f MB pcap\n",
                static_cast<unsigned long long>(total),
                static_cast<double>(events_stats.input_bytes) / 1e6);
    std::printf("transcode: %.1f MB/s p50, events %llu B (%.1fx), frames %llu B (%.1fx)\n",
                transcode_mbps, static_cast<unsigned long long>(events_stats.output_bytes),
                events_ratio, static_cast<unsigned long long>(frames_stats.value().output_bytes),
                frames_ratio);

    // --- Cold replay: open + full run, every repeat from scratch -----------
    StageStats cold_ms;
    std::string replay_report;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = now_seconds();
        auto engine = replay::ReplayEngine::open(tvcr_path);
        if (!engine.ok()) {
            std::fprintf(stderr, "open failed: %s\n", engine.error().message.c_str());
            return 1;
        }
        auto result = engine.value().run(kDevice);
        const double t1 = now_seconds();
        if (!result.ok()) {
            std::fprintf(stderr, "replay failed: %s\n", result.error().message.c_str());
            return 1;
        }
        cold_ms.ms.push_back((t1 - t0) * 1e3);
        if (r == 0) replay_report = replay::canonical_report(result.value());
    }

    // --- Resumed replay: last ~10% of blocks from an already-open reader ---
    auto resumed_engine = replay::ReplayEngine::open(tvcr_path);
    if (!resumed_engine.ok()) {
        std::fprintf(stderr, "open failed: %s\n", resumed_engine.error().message.c_str());
        return 1;
    }
    const std::size_t blocks = resumed_engine.value().reader().blocks().size();
    const std::size_t resume_block = blocks - std::max<std::size_t>(blocks / 10, 1);
    StageStats resumed_ms;
    std::uint64_t resumed_records = 0;
    for (int r = 0; r < repeats; ++r) {
        replay::ReplayOptions options;
        options.from_block = resume_block;
        const double t0 = now_seconds();
        auto result = resumed_engine.value().run(kDevice, options);
        const double t1 = now_seconds();
        if (!result.ok()) {
            std::fprintf(stderr, "resumed replay failed: %s\n", result.error().message.c_str());
            return 1;
        }
        resumed_ms.ms.push_back((t1 - t0) * 1e3);
        resumed_records = resumed_engine.value().last_stats().records_replayed;
    }

    // --- Determinism gate: cold replay == batch analysis of the pcap -------
    auto batch = analysis::analyze_pcap_stream(pcap_path, kDevice);
    if (!batch.ok()) {
        std::fprintf(stderr, "batch analysis failed: %s\n", batch.error().message.c_str());
        return 1;
    }
    const bool identical = replay_report == replay::canonical_report(batch.value());

    const double cold_pps = static_cast<double>(total) / (cold_ms.p50() / 1e3);
    std::printf("cold:      %10.0f pkts/s  (p50 %.1f ms over %zu blocks)\n", cold_pps,
                cold_ms.p50(), blocks);
    std::printf("resumed:   p50 %.1f ms from block %zu/%zu (%llu records, %.1fx less latency)\n",
                resumed_ms.p50(), resume_block, blocks,
                static_cast<unsigned long long>(resumed_records),
                cold_ms.p50() / std::max(resumed_ms.p50(), 1e-6));
    std::printf("identical: %s\n", identical ? "yes" : "NO — REPLAY DIVERGED");

    analysis::JsonWriter json;
    json.begin_object();
    json.key("bench").value("replay");
    json.key("workload").begin_object();
    json.key("packets").value(static_cast<std::uint64_t>(total));
    json.key("domains").value(static_cast<std::uint64_t>(kDomains));
    json.key("pcap_bytes").value(static_cast<std::uint64_t>(events_stats.input_bytes));
    json.end_object();
    json.key("repeats").value(repeats);
    json.key("transcode").begin_object();
    json.key("mb_per_sec").value(transcode_mbps);
    write_stage(json, "total", transcode_ms);
    json.key("events_bytes").value(events_stats.output_bytes);
    json.key("events_ratio").value(events_ratio);
    json.key("frames_bytes").value(frames_stats.value().output_bytes);
    json.key("frames_ratio").value(frames_ratio);
    json.key("blocks").value(events_stats.blocks);
    json.end_object();
    json.key("cold").begin_object();
    json.key("packets_per_sec").value(cold_pps);
    write_stage(json, "total", cold_ms);
    json.end_object();
    json.key("resumed").begin_object();
    json.key("from_block").value(static_cast<std::uint64_t>(resume_block));
    json.key("records").value(resumed_records);
    write_stage(json, "total", resumed_ms);
    json.end_object();
    json.key("identical").value(identical);
    json.end_object();

    std::ofstream out(out_path, std::ios::trunc);
    out << std::move(json).take() << "\n";
    std::printf("wrote %s\n", out_path.c_str());

    std::remove(pcap_path.c_str());
    std::remove(tvcr_path.c_str());
    std::remove(frames_path.c_str());

    if (!identical) return 1;
    if (events_ratio < 10.0) {
        std::fprintf(stderr, "events-mode ratio %.1fx is below the 10x floor\n", events_ratio);
        return 1;
    }
    return 0;
}
