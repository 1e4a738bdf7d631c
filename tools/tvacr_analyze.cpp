// tvacr_analyze — ACR traffic analysis for a capture file.
//
//   tvacr_analyze <capture.{pcap,pcapng,tvcr}> <device-ip>
//                 [--minutes N] [--jobs N]
//                 [--resume-from BLOCK] [--since SECONDS] [--report out.txt]
//
// Runs the paper's analysis pipeline on an arbitrary capture: per-domain
// traffic accounting (via harvested DNS), burst cadence and period
// inference, and the ACR-domain identification heuristic. Works on captures
// produced by this toolkit or by a real Mon(IoT)r-style tap, as long as the
// trace includes the device's DNS traffic. The input format is read from
// the file's magic number (replay::sniff_capture_format); an unrecognized
// magic is read as pcap and fails with the pcap reader's error.
//
// Plain pcap input is streamed: the capture is read incrementally through
// net::PcapReader and analyzed by the flow-sharded engine, so peak memory
// stays at the reader's buffer plus compact per-packet metadata no matter
// how large the capture is. --jobs N attributes shards on N worker threads;
// the output is byte-identical for every jobs value. pcapng input falls
// back to the in-memory decoder (its block structure needs the whole file).
//
// .tvcr input replays the indexed event stream instead of re-parsing
// frames, and unlocks resumable analysis: --resume-from k restarts at block
// boundary k, --since S skips ahead via the footer's time index. Either way
// the produced report is byte-identical to a batch run over the
// corresponding packet range. --report writes the canonical (filename-free)
// report used by the CI replay-determinism gate.
//
// Unknown flags and flags missing their value exit 2 with usage.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/acr_detect.hpp"
#include "analysis/report.hpp"
#include "analysis/stream.hpp"
#include "analysis/timeseries.hpp"
#include "common/parse.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "net/pcapng.hpp"
#include "replay/replay.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <capture.{pcap,pcapng,tvcr}> <device-ip> [--minutes N] [--jobs N]\n"
                 "          [--resume-from BLOCK] [--since SECONDS] [--report out.txt]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage(argv[0]);
    const auto device_ip = net::Ipv4Address::parse(argv[2]);
    if (!device_ip.ok()) {
        std::fprintf(stderr, "bad device ip: %s\n", argv[2]);
        return 2;
    }
    SimTime capture_length = SimTime::hours(1);
    long jobs = 1;
    std::size_t resume_from = 0;
    bool has_resume = false;
    std::optional<SimTime> since;
    std::string report_path;
    for (int i = 3; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc) return usage(argv[0]);  // every flag takes a value
        const char* value = argv[++i];
        if (std::strcmp(flag, "--minutes") == 0) {
            capture_length =
                SimTime::minutes(common::parse_flag_int("--minutes", value, 1, 1 << 24));
        } else if (std::strcmp(flag, "--jobs") == 0) {
            jobs = common::parse_flag_int("--jobs", value, 1, 1024);
        } else if (std::strcmp(flag, "--resume-from") == 0) {
            resume_from = static_cast<std::size_t>(
                common::parse_flag_int("--resume-from", value, 0, 1LL << 40));
            has_resume = true;
        } else if (std::strcmp(flag, "--since") == 0) {
            since = SimTime::seconds(common::parse_flag_int("--since", value, 0, 1LL << 40));
        } else if (std::strcmp(flag, "--report") == 0) {
            report_path = value;
        } else {
            return usage(argv[0]);
        }
    }
    const replay::CaptureFormat format = replay::sniff_capture_file(argv[1]);
    if ((has_resume || since.has_value()) && format != replay::CaptureFormat::kTvcr) {
        std::fprintf(stderr, "--resume-from/--since need an indexed .tvcr capture\n");
        return 2;
    }

    std::unique_ptr<common::ThreadPool> pool;
    analysis::StreamOptions options;
    if (jobs > 1) {
        pool = std::make_unique<common::ThreadPool>(static_cast<std::size_t>(jobs));
        options.pool = pool.get();
    }
    options.shards = static_cast<std::size_t>(jobs) * 2;

    Result<analysis::CaptureAnalyzer> analyzed = make_error("unreachable");
    if (format == replay::CaptureFormat::kTvcr) {
        auto engine = replay::ReplayEngine::open(argv[1]);
        if (!engine.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                         engine.error().message.c_str());
            return 1;
        }
        replay::ReplayOptions replay_options;
        replay_options.from_block = resume_from;
        replay_options.since = since;
        replay_options.stream = options;
        analyzed = engine.value().run(device_ip.value(), replay_options);
        if (!analyzed.ok()) {
            std::fprintf(stderr, "cannot replay %s: %s\n", argv[1],
                         analyzed.error().message.c_str());
            return 1;
        }
        const auto& stats = engine.value().last_stats();
        std::printf("Replayed %llu records (%zu blocks read, %zu skipped) from %s\n",
                    static_cast<unsigned long long>(stats.records_replayed), stats.blocks_read,
                    stats.blocks_skipped, argv[1]);
    } else if (format == replay::CaptureFormat::kPcapng) {
        // pcapng: materialize, then run the same sharded engine.
        const auto packets = net::read_pcapng_file(argv[1]);
        if (!packets.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                         packets.error().message.c_str());
            return 1;
        }
        analyzed = analysis::analyze_packets(packets.value(), device_ip.value(), options);
    } else {
        analyzed = analysis::analyze_pcap_stream(argv[1], device_ip.value(), options);
        if (!analyzed.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", argv[1],
                         analyzed.error().message.c_str());
            return 1;
        }
    }
    const analysis::CaptureAnalyzer& analyzer = analyzed.value();
    if (!report_path.empty()) {
        std::ofstream report(report_path, std::ios::binary | std::ios::trunc);
        report << replay::canonical_report(analyzer);
        if (!report) {
            std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
            return 1;
        }
    }
    std::printf("Analyzed %llu packets from %s\n\n",
                static_cast<unsigned long long>(analyzer.packets_total()), argv[1]);
    if (analyzer.packets_total() == analyzer.unparseable()) {
        std::fprintf(stderr, "no parseable IPv4 traffic for device %s\n", argv[2]);
        return 1;
    }

    analysis::Table table;
    table.title = "Per-domain traffic (device " + device_ip.value().to_string() + ")";
    table.header = {"Domain", "KB", "pkts", "up KB", "down KB", "bursts", "interval", "cv"};
    for (const auto* stats : analyzer.domains_by_bytes()) {
        const auto cadence =
            analysis::burst_cadence(analysis::find_bursts(stats->events, SimTime::seconds(5)));
        char interval[32];
        std::snprintf(interval, sizeof(interval), "%.1fs", cadence.mean_interval_s);
        char cv[16];
        std::snprintf(cv, sizeof(cv), "%.2f", cadence.cv);
        table.rows.push_back({stats->domain, format_kb(stats->kilobytes()),
                              std::to_string(stats->packets),
                              format_kb(static_cast<double>(stats->bytes_up) / 1000.0),
                              format_kb(static_cast<double>(stats->bytes_down) / 1000.0),
                              std::to_string(cadence.bursts), interval, cv});
    }
    std::cout << table.render() << "\n";

    const analysis::AcrDomainIdentifier identifier;
    const auto findings = identifier.identify(analyzer, nullptr, capture_length);
    std::cout << "ACR-domain heuristic (name + blocklist + cadence):\n";
    bool any = false;
    for (const auto& finding : findings) {
        if (!finding.verdict && !finding.name_contains_acr) continue;
        any = true;
        std::printf("  %-36s %s (acr-substr=%c blocklist=%c regular=%c period=%.0fs)\n",
                    finding.domain.c_str(), finding.verdict ? "ACR" : "not-acr",
                    finding.name_contains_acr ? 'y' : 'n', finding.blocklisted ? 'y' : 'n',
                    finding.regular_contact ? 'y' : 'n', finding.period_seconds);
    }
    if (!any) std::printf("  (no candidates)\n");
    return 0;
}
