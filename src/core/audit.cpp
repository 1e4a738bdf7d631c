#include "core/audit.hpp"

#include <future>
#include <optional>
#include <sstream>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"

namespace tvacr::core {

AuditReport AuditPipeline::run(const AuditConfig& config) {
    AuditReport report;
    report.config = config;

    // Opted-in run on a bed we keep (its ground truth feeds geolocation).
    ExperimentSpec opted_in;
    opted_in.brand = config.brand;
    opted_in.country = config.country;
    opted_in.scenario = config.scenario;
    opted_in.phase = tv::Phase::kLInOIn;
    opted_in.duration = config.duration;
    opted_in.seed = config.seed;
    opted_in.trace = config.trace;
    opted_in.faults = config.faults;

    // Opted-out control run, overlapped with the opted-in capture when the
    // config allows a second job.
    ExperimentSpec opted_out = opted_in;
    opted_out.phase = tv::Phase::kLInOOut;
    // Both runs are analyzed at the tap: neither stores a frame.
    std::optional<common::ThreadPool> pool;
    std::future<AnalyzedExperiment> out_future;
    if (config.jobs > 1) {
        pool.emplace(1);
        out_future =
            pool->submit([opted_out]() { return ExperimentRunner::run_analyzed(opted_out); });
    }

    Testbed bed(ExperimentRunner::testbed_config(opted_in));
    bed.analyze_at_tap();
    const ExperimentResult in_result = ExperimentRunner::run_on(bed, opted_in);
    const auto in_analysis = bed.finish_analysis();
    const AnalyzedExperiment out_run =
        out_future.valid() ? out_future.get() : ExperimentRunner::run_analyzed(opted_out);
    const ExperimentResult& out_result = out_run.result;
    const auto& out_analysis = out_run.analysis;

    const analysis::AcrDomainIdentifier identifier;
    report.findings = identifier.identify(in_analysis, &out_analysis, config.duration);
    for (const auto& finding : report.findings) {
        if (finding.verdict) report.confirmed_acr_domains.push_back(finding.domain);
    }
    report.true_acr_domains = in_result.true_acr_domains;
    report.backend_matches = in_result.backend_matches;

    // Fixed merge order (opted-in, then opted-out) keeps the merged metrics
    // byte-identical whether the control run overlapped or ran serially.
    report.metrics.merge(in_result.metrics);
    report.metrics.merge(out_result.metrics);
    if (config.trace) {
        report.trace.merge_from(in_result.trace_events, 1, "opted-in " + opted_in.name());
        report.trace.merge_from(out_result.trace_events, 2, "opted-out " + opted_out.name());
    }

    for (const auto& domain : in_result.true_acr_domains) {
        if (const auto* stats = in_analysis.find(domain)) {
            report.opted_in_acr_kb += stats->kilobytes();
        }
        if (const auto* stats = out_analysis.find(domain)) {
            report.opted_out_acr_kb += stats->kilobytes();
        }
    }

    // Geolocation of the confirmed endpoints via the paper's workflow:
    // two GeoIP databases, then traceroute + RIPE IPmap on disagreement.
    const auto& truth = bed.ground_truth();
    const auto maxmind = geo::derive_database("maxmind-like", truth, /*error_rate=*/0.25,
                                              derive_seed(config.seed, 0x3A3));
    const auto ip2location = geo::derive_database("ip2location-like", truth, /*error_rate=*/0.25,
                                                  derive_seed(config.seed, 0x1B2));
    std::vector<const geo::City*> probes;
    for (const char* name : {"London", "Amsterdam", "Frankfurt", "Dublin", "New York", "Ashburn",
                             "Chicago", "Dallas", "San Jose", "Seattle", "Tokyo", "Sydney"}) {
        probes.push_back(geo::find_city(name));
    }
    const geo::RipeIpMap ipmap(truth, probes, derive_seed(config.seed, 0x1FA));
    const geo::Traceroute traceroute(truth, derive_seed(config.seed, 0x7 - 0));
    const geo::Geolocator locator(maxmind, ip2location, ipmap, traceroute, bed.vantage());

    for (const auto& domain : report.confirmed_acr_domains) {
        const auto address = bed.address_of(domain);
        if (!address) continue;
        report.geolocation.push_back(DomainGeolocation{domain, locator.locate(*address)});
    }

    // What the second party learned about this household.
    report.audience_segments = bed.backend().profiler().segments(bed.tv().device_id());
    return report;
}

std::string AuditReport::render() const {
    std::ostringstream out;
    out << "=== ACR audit: " << to_string(config.brand) << " in " << to_string(config.country)
        << ", scenario " << to_string(config.scenario) << " ===\n\n";

    out << "Identified ACR domains (heuristic + blocklist + cadence + opt-out differential):\n";
    for (const auto& finding : findings) {
        if (!finding.name_contains_acr && !finding.verdict) continue;
        out << "  " << pad_right(finding.domain, 36) << " acr-substr="
            << (finding.name_contains_acr ? "y" : "n")
            << " blocklist=" << (finding.blocklisted ? "y" : "n")
            << " cadence-cv=" << static_cast<int>(finding.cadence.cv * 100) << "%"
            << " period=" << static_cast<int>(finding.period_seconds) << "s"
            << " optout-gone="
            << (finding.optout_differential ? (*finding.optout_differential ? "y" : "n") : "-")
            << " => " << (finding.verdict ? "ACR" : "not-acr") << "\n";
    }

    out << "\nACR traffic: opted-in " << format_kb(opted_in_acr_kb) << " KB vs opted-out "
        << format_kb(opted_out_acr_kb) << " KB\n";
    out << "Backend recognized " << backend_matches << " fingerprint batches\n";

    out << "\nGeolocation of ACR endpoints:\n";
    for (const auto& entry : geolocation) {
        out << "  " << pad_right(entry.domain, 36) << " "
            << entry.result.address.to_string() << " -> "
            << (entry.result.final_city != nullptr ? entry.result.final_city->name : "?") << " ("
            << entry.result.method << ")\n";
    }

    out << "\nAudience segments derived from viewing history:";
    if (audience_segments.empty()) out << " (none)";
    for (const auto& segment : audience_segments) out << " [" << segment << "]";
    out << "\n";
    return out.str();
}

}  // namespace tvacr::core
