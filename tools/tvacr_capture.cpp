// tvacr_capture — run one testbed experiment and write the capture.
//
//   tvacr_capture [--brand samsung|lg] [--country uk|us]
//                 [--scenario idle|linear|fast|ott|hdmi|cast]
//                 [--phase lin-oin|lout-oin|lin-oout|lout-oout]
//                 [--minutes N] [--seed N] [--out capture.pcap]
//                 [--format pcap|pcapng|tvcr|tvcr-frames]
//                 [--metrics m.json] [--trace t.json]
//                 [--faults canonical|none|<spec>]
//
// pcap/pcapng output opens in Wireshark and feeds straight into
// tvacr_analyze. --format tvcr records the .tvcr replay format
// instead (events mode: smallest, replays through tvacr_analyze
// byte-identically, supports --resume-from/--since); tvcr-frames keeps the
// raw frames too, so the file also exports losslessly back to pcap.
// --metrics writes the run's deterministic metrics; --trace records
// sim-time spans as a Chrome trace_event file (".csv" suffix switches
// either output to CSV). --faults runs the experiment over an impaired
// link ("canonical" is the reference scenario; an inline spec looks like
// "loss=0.05,outage=60s+15s" — see fault/spec.hpp).
//
// Unknown flags (--help among them) and flags missing their value exit 2
// with usage and write nothing.
#include <cstdio>
#include <string>
#include <string_view>

#include "common/flags.hpp"
#include "common/signal.hpp"
#include "core/experiment.hpp"
#include "fault/spec.hpp"
#include "net/pcap.hpp"
#include "net/pcapng.hpp"
#include "obs/io.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--brand samsung|lg] [--country uk|us]\n"
                 "          [--scenario idle|linear|fast|ott|hdmi|cast]\n"
                 "          [--phase lin-oin|lout-oin|lin-oout|lout-oout]\n"
                 "          [--minutes N] [--seed N] [--out capture.pcap]\n"
                 "          [--format pcap|pcapng|tvcr|tvcr-frames]\n"
                 "          [--metrics m.json] [--trace t.json]\n"
                 "          [--faults canonical|none|<spec>]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    core::ExperimentSpec spec;
    long long minutes = 10;
    std::string out = "capture.pcap";
    std::string metrics_path;
    std::string trace_path;
    std::string out_format = "pcap";

    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--brand", spec.brand, tv::parse_brand},
            {"--country", spec.country, tv::parse_country},
            {"--scenario", spec.scenario, tv::parse_scenario},
            {"--phase", spec.phase, tv::parse_phase},
            {"--minutes", minutes, 1, 1 << 24},
            {"--seed", spec.seed},
            {"--out", out},
            {"--format",
             [&](std::string_view v) {
                 out_format = v;
                 return v == "pcap" || v == "pcapng" || v == "tvcr" || v == "tvcr-frames";
             }},
            {"--metrics", metrics_path},
            {"--trace", trace_path},
            {"--faults",
             [&](std::string_view v) {
                 const auto parsed = fault::parse_fault_spec(v);
                 if (!parsed.spec) {
                     std::fprintf(stderr, "bad --faults spec: %s\n", parsed.error.c_str());
                 }
                 spec.faults = parsed.spec.value_or(spec.faults);
                 return parsed.spec.has_value();
             }},
        },
        usage);
    if (!positionals.empty()) return usage(argv[0]);
    spec.duration = SimTime::minutes(minutes);
    spec.trace = !trace_path.empty();

    // SIGINT/SIGTERM: every output below goes through a finalized tmp+rename
    // write, so an interrupted run leaves each file complete or absent —
    // never a capture that validates but silently lost its tail. The exit
    // code still reports the interruption.
    common::install_shutdown_handlers();

    std::printf("Running %s for %lld min (seed %llu)...\n", spec.name().c_str(),
                static_cast<long long>(spec.duration.as_micros() / 60'000'000),
                static_cast<unsigned long long>(spec.seed));
    const auto result = core::ExperimentRunner::run(spec);
    const auto status_of = [&]() {
        if (out_format == "pcapng") return net::write_pcapng_file(out, result.capture);
        if (out_format == "pcap") return net::write_pcap_file(out, result.capture);
        return result.record_tvcr(out, /*keep_frames=*/out_format == "tvcr-frames");
    };
    if (const auto status = status_of(); !status.ok()) {
        std::fprintf(stderr, "write failed: %s\n", status.error().message.c_str());
        return 1;
    }
    std::printf("Wrote %zu packets to %s (device ip %s)\n", result.capture.size(), out.c_str(),
                result.device_ip.to_string().c_str());
    if (!metrics_path.empty()) {
        if (!obs::write_metrics_file(metrics_path, result.metrics)) {
            std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
            return 1;
        }
        std::printf("(metrics written to %s)\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        obs::TraceLog log;
        log.merge_from(result.trace_events, 1, spec.name());
        if (!obs::write_trace_file(trace_path, log)) {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
            return 1;
        }
        std::printf("(trace written to %s)\n", trace_path.c_str());
    }
    std::printf("Analyze with: tvacr_analyze %s %s\n", out.c_str(),
                result.device_ip.to_string().c_str());
    if (common::shutdown_requested()) {
        std::fprintf(stderr, "interrupted; outputs finalized\n");
        return 130;
    }
    return 0;
}
