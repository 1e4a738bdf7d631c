// tvacr_analyze — ACR traffic analysis for a capture file.
//
//   tvacr_analyze <capture.{pcap,pcapng,tvcr}> <device-ip> [--minutes N]
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
// Every input goes through the one streaming attribution engine
// (analysis::StreamingCaptureAnalyzer), one pass in capture order. Plain
// pcap input is read incrementally through net::PcapReader and each packet
// is attributed as it is read, so the capture's frames never sit in memory.
// pcapng input falls back to the in-memory decoder (its block structure
// needs the whole file).
//
// .tvcr input replays the recorded event stream instead of re-parsing
// frames, and unlocks resumable analysis: --resume-from k restarts at block
// boundary k, --since S skips the blocks that end before S. Either way
// the produced report is byte-identical to a batch run over the
// corresponding packet range. --report writes the canonical (filename-free)
// report used by the CI replay-determinism gate.
//
// Unknown flags (--jobs among them: there is nothing to parallelize) and
// flags missing their value exit 2 with usage.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/acr_detect.hpp"
#include "analysis/report.hpp"
#include "analysis/stream.hpp"
#include "analysis/timeseries.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "net/pcapng.hpp"
#include "replay/replay.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <capture.{pcap,pcapng,tvcr}> <device-ip> [--minutes N]\n"
                 "          [--resume-from BLOCK] [--since SECONDS] [--report out.txt]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    long long minutes = 60;
    long long resume_from = -1;  // -1: flag not given
    long long since_s = -1;
    std::string report_path;
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--minutes", minutes, 1, 1 << 24},
            {"--resume-from", resume_from, 0, 1LL << 40},
            {"--since", since_s, 0, 1LL << 40},
            {"--report", report_path},
        },
        usage);
    if (positionals.size() != 2) return usage(argv[0]);
    const char* capture_path = positionals[0].c_str();
    const char* device_arg = positionals[1].c_str();
    const auto device_ip = net::Ipv4Address::parse(device_arg);
    if (!device_ip.ok()) {
        std::fprintf(stderr, "bad device ip: %s\n", device_arg);
        return 2;
    }
    const replay::CaptureFormat format = replay::sniff_capture_file(capture_path);
    if ((resume_from >= 0 || since_s >= 0) && format != replay::CaptureFormat::kTvcr) {
        std::fprintf(stderr, "--resume-from/--since need a .tvcr capture\n");
        return 2;
    }

    Result<analysis::CaptureAnalyzer> analyzed = make_error("unreachable");
    if (format == replay::CaptureFormat::kTvcr) {
        auto engine = replay::ReplayEngine::open(capture_path);
        if (!engine.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", capture_path,
                         engine.error().message.c_str());
            return 1;
        }
        replay::ReplayOptions replay_options;
        replay_options.from_block = static_cast<std::size_t>(std::max(resume_from, 0LL));
        if (since_s >= 0) replay_options.since = SimTime::seconds(since_s);
        analyzed = engine.value().run(device_ip.value(), replay_options);
        if (!analyzed.ok()) {
            std::fprintf(stderr, "cannot replay %s: %s\n", capture_path,
                         analyzed.error().message.c_str());
            return 1;
        }
        const auto& stats = engine.value().last_stats();
        std::printf("Replayed %llu records (%zu blocks read, %zu skipped) from %s\n",
                    static_cast<unsigned long long>(stats.records_replayed), stats.blocks_read,
                    stats.blocks_skipped, capture_path);
    } else if (format == replay::CaptureFormat::kPcapng) {
        // pcapng: materialize, then run the same streaming engine.
        const auto packets = net::read_pcapng_file(capture_path);
        if (!packets.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", capture_path,
                         packets.error().message.c_str());
            return 1;
        }
        analyzed = analysis::analyze_packets(packets.value(), device_ip.value());
    } else {
        std::uint64_t torn_tail_bytes = 0;
        analyzed = analysis::analyze_pcap_stream(capture_path, device_ip.value(), {},
                                                 &torn_tail_bytes);
        if (!analyzed.ok()) {
            std::fprintf(stderr, "cannot read %s: %s\n", capture_path,
                         analyzed.error().message.c_str());
            return 1;
        }
        // A capture cut mid-record is still analyzed (stdout, --report and
        // the exit code are those of the records before the cut), but the
        // cut is never silent.
        if (torn_tail_bytes != 0) {
            std::fprintf(stderr,
                         "warning: capture ends inside a record; %llu trailing bytes not "
                         "analyzed\n",
                         static_cast<unsigned long long>(torn_tail_bytes));
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
                static_cast<unsigned long long>(analyzer.packets_total()), capture_path);
    if (analyzer.packets_total() == analyzer.unparseable()) {
        std::fprintf(stderr, "no parseable IPv4 traffic for device %s\n", device_arg);
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
    const auto findings = identifier.identify(analyzer, nullptr, SimTime::minutes(minutes));
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
