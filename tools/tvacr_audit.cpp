// tvacr_audit — the complete paper methodology as one command.
//
//   tvacr_audit [--brand samsung|lg] [--country uk|us]
//               [--scenario idle|linear|fast|ott|hdmi|cast]
//               [--minutes N] [--seed N] [--jobs N] [--json out.json] [--mitm]
//               [--metrics m.json] [--trace t.json]
//               [--faults canonical|none|<spec>]
//
// Runs an opted-in capture and an opted-out control, identifies the ACR
// endpoints from traffic alone, geolocates them, reports what the operator
// learned, and (with --mitm) decomposes the payloads under the lab
// interception proxy. --json writes the machine-readable report. --metrics
// writes the merged deterministic metrics (byte-identical for any --jobs);
// --trace records sim-time spans and writes a Chrome trace_event file
// (".csv" suffix switches either output to CSV). --faults audits over an
// impaired link ("canonical" is the reference scenario; see fault/spec.hpp
// for the inline syntax).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string_view>

#include "common/flags.hpp"
#include "core/audit.hpp"
#include "core/export.hpp"
#include "core/matrix_runner.hpp"
#include "core/mitm_audit.hpp"
#include "fault/spec.hpp"
#include "obs/io.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--brand samsung|lg] [--country uk|us]\n"
                 "          [--scenario idle|linear|fast|ott|hdmi|cast]\n"
                 "          [--minutes N] [--seed N] [--jobs N] [--json out.json] [--mitm]\n"
                 "          [--metrics m.json] [--trace t.json]\n"
                 "          [--faults canonical|none|<spec>]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    core::AuditConfig config;
    long long minutes = 30;
    config.jobs = core::default_jobs();
    std::string json_path;
    std::string metrics_path;
    std::string trace_path;
    bool mitm = false;

    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--brand", config.brand, tv::parse_brand},
            {"--country", config.country, tv::parse_country},
            {"--scenario", config.scenario, tv::parse_scenario},
            {"--minutes", minutes, 1, 1 << 24},
            {"--seed", config.seed},
            {"--jobs", config.jobs, 1, 1024},
            {"--json", json_path},
            {"--mitm", mitm},
            {"--metrics", metrics_path},
            {"--trace", trace_path},
            {"--faults",
             [&](std::string_view v) {
                 const auto parsed = fault::parse_fault_spec(v);
                 if (!parsed.spec) {
                     std::fprintf(stderr, "bad --faults spec: %s\n", parsed.error.c_str());
                 }
                 config.faults = parsed.spec.value_or(config.faults);
                 return parsed.spec.has_value();
             }},
        },
        usage);
    if (!positionals.empty()) return usage(argv[0]);
    config.duration = SimTime::minutes(minutes);
    config.trace = !trace_path.empty();

    std::printf("Auditing %s in %s, scenario %s, %lld min per phase...\n\n",
                to_string(config.brand).c_str(), to_string(config.country).c_str(),
                to_string(config.scenario).c_str(),
                static_cast<long long>(config.duration.as_micros() / 60'000'000));
    const auto report = core::AuditPipeline::run(config);
    std::cout << report.render();

    if (mitm) {
        core::ExperimentSpec spec;
        spec.brand = config.brand;
        spec.country = config.country;
        spec.scenario = config.scenario;
        spec.duration = config.duration;
        spec.seed = config.seed;
        spec.faults = config.faults;
        std::cout << "\n" << core::MitmAudit::run(spec).render();
    }

    if (!json_path.empty()) {
        std::ofstream file(json_path);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        file << core::audit_to_json(report) << "\n";
        std::printf("\n(JSON report written to %s)\n", json_path.c_str());
    }
    if (!metrics_path.empty()) {
        if (!obs::write_metrics_file(metrics_path, report.metrics)) {
            std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
            return 1;
        }
        std::printf("(metrics written to %s)\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        if (!obs::write_trace_file(trace_path, report.trace)) {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
            return 1;
        }
        std::printf("(trace written to %s)\n", trace_path.c_str());
    }
    return report.confirmed_acr_domains.empty() && config.scenario == tv::Scenario::kLinear ? 1
                                                                                            : 0;
}
