// Capture interoperability: run an experiment and persist the capture as a
// standard pcap file (classic libpcap format) that Wireshark/tcpdump open
// directly, then read it back with this library's own reader and re-run the
// ACR analysis on the file — proving the analysis layer is an ordinary
// packet-trace tool, not a simulator-only construct.
//
//   pcap_export [out.pcap]   (default: samsung_uk_linear.pcap)
//
// It takes no flags: a flag or a second argument exits 2 with usage before
// anything runs.
#include <cstdio>
#include <iostream>

#include "analysis/acr_detect.hpp"
#include "analysis/stream.hpp"
#include "common/flags.hpp"
#include "core/experiment.hpp"
#include "net/pcap.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [out.pcap]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const auto args = common::parse_flags(argc, argv, {}, usage);
    if (args.size() > 1) return usage(argv[0]);
    const std::string path = args.empty() ? "samsung_uk_linear.pcap" : args[0];

    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kSamsung;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.duration = SimTime::minutes(10);
    spec.seed = 7;

    std::cout << "Running a 10-minute Samsung/UK/Linear capture...\n";
    const auto result = core::ExperimentRunner::run(spec);
    std::printf("Captured %zu frames.\n", result.capture.size());

    if (const auto status = net::write_pcap_file(path, result.capture); !status.ok()) {
        std::fprintf(stderr, "pcap write failed: %s\n", status.error().message.c_str());
        return 1;
    }
    std::printf("Wrote %s (open it in Wireshark: valid IPv4/TCP/UDP checksums,\n"
                "real DNS payloads, TLS-sized opaque records).\n\n",
                path.c_str());

    // Round trip: read the file back and analyze it as an external trace.
    const auto restored = net::read_pcap_file(path);
    if (!restored.ok()) {
        std::fprintf(stderr, "pcap read failed: %s\n", restored.error().message.c_str());
        return 1;
    }
    const auto analyzer = analysis::analyze_packets(restored.value(), result.device_ip);

    std::cout << "Top domains in the restored trace:\n";
    int shown = 0;
    for (const auto* stats : analyzer.domains_by_bytes()) {
        if (++shown > 8) break;
        std::printf("  %-36s %8.1f KB  %6llu pkts\n", stats->domain.c_str(), stats->kilobytes(),
                    static_cast<unsigned long long>(stats->packets));
    }

    const analysis::AcrDomainIdentifier identifier;
    const auto acr = identifier.acr_domains(analyzer, nullptr, spec.duration);
    std::cout << "\nACR endpoints identified from the file alone:\n";
    for (const auto& domain : acr) std::printf("  %s\n", domain.c_str());
    return acr.empty() ? 1 : 0;
}
