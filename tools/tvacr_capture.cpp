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
// tvacr_analyze. --format tvcr records the indexed .tvcr replay format
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
#include <cstring>
#include <string>

#include "common/parse.hpp"
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
    spec.duration = SimTime::minutes(10);
    std::string out = "capture.pcap";
    std::string metrics_path;
    std::string trace_path;
    enum class OutFormat { kPcap, kPcapng, kTvcr, kTvcrFrames };
    OutFormat out_format = OutFormat::kPcap;

    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) return usage(argv[0]);  // every flag takes a value
        const std::string value = argv[++i];
        if (key == "--brand") {
            if (value == "samsung") {
                spec.brand = tv::Brand::kSamsung;
            } else if (value == "lg") {
                spec.brand = tv::Brand::kLg;
            } else {
                return usage(argv[0]);
            }
        } else if (key == "--country") {
            if (value == "uk") {
                spec.country = tv::Country::kUk;
            } else if (value == "us") {
                spec.country = tv::Country::kUs;
            } else {
                return usage(argv[0]);
            }
        } else if (key == "--scenario") {
            if (value == "idle") spec.scenario = tv::Scenario::kIdle;
            else if (value == "linear") spec.scenario = tv::Scenario::kLinear;
            else if (value == "fast") spec.scenario = tv::Scenario::kFast;
            else if (value == "ott") spec.scenario = tv::Scenario::kOtt;
            else if (value == "hdmi") spec.scenario = tv::Scenario::kHdmi;
            else if (value == "cast") spec.scenario = tv::Scenario::kScreenCast;
            else return usage(argv[0]);
        } else if (key == "--phase") {
            if (value == "lin-oin") spec.phase = tv::Phase::kLInOIn;
            else if (value == "lout-oin") spec.phase = tv::Phase::kLOutOIn;
            else if (value == "lin-oout") spec.phase = tv::Phase::kLInOOut;
            else if (value == "lout-oout") spec.phase = tv::Phase::kLOutOOut;
            else return usage(argv[0]);
        } else if (key == "--minutes") {
            spec.duration = SimTime::minutes(common::parse_flag_int("--minutes", value, 1, 1 << 24));
        } else if (key == "--seed") {
            spec.seed = common::parse_flag_u64("--seed", value);
        } else if (key == "--out") {
            out = value;
        } else if (key == "--format") {
            if (value == "pcapng") out_format = OutFormat::kPcapng;
            else if (value == "tvcr") out_format = OutFormat::kTvcr;
            else if (value == "tvcr-frames") out_format = OutFormat::kTvcrFrames;
            else if (value == "pcap") out_format = OutFormat::kPcap;
            else return usage(argv[0]);
        } else if (key == "--metrics") {
            metrics_path = value;
        } else if (key == "--trace") {
            trace_path = value;
        } else if (key == "--faults") {
            const auto parsed = fault::parse_fault_spec(value);
            if (!parsed.spec) {
                std::fprintf(stderr, "bad --faults spec: %s\n", parsed.error.c_str());
                return usage(argv[0]);
            }
            spec.faults = *parsed.spec;
        } else {
            return usage(argv[0]);
        }
    }
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
        switch (out_format) {
            case OutFormat::kPcapng: return net::write_pcapng_file(out, result.capture);
            case OutFormat::kTvcr: return result.record_tvcr(out, /*keep_frames=*/false);
            case OutFormat::kTvcrFrames: return result.record_tvcr(out, /*keep_frames=*/true);
            case OutFormat::kPcap: break;
        }
        return net::write_pcap_file(out, result.capture);
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
