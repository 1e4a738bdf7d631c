#include "core/campaign.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "core/matrix_runner.hpp"

namespace tvacr::core {

std::string display_domain(const std::string& domain) {
    // eu-acr<N>. / tkacr<N>. -> X form.
    for (const char* prefix : {"eu-acr", "tkacr"}) {
        if (starts_with(domain, prefix)) {
            const std::size_t digits_start = std::string(prefix).size();
            std::size_t digits_end = digits_start;
            while (digits_end < domain.size() &&
                   std::isdigit(static_cast<unsigned char>(domain[digits_end])) != 0) {
                ++digits_end;
            }
            if (digits_end > digits_start) {
                return domain.substr(0, digits_start) + "X" + domain.substr(digits_end);
            }
        }
    }
    return domain;
}

ScenarioTrace trace_of(const ExperimentResult& result,
                       const analysis::CaptureAnalyzer& analyzer) {
    ScenarioTrace trace;
    trace.spec = result.spec;
    trace.metrics = result.metrics;
    trace.trace_events = result.trace_events;

    for (const auto& true_domain : result.true_acr_domains) {
        const analysis::DomainStats* stats = analyzer.find(true_domain);
        const std::string display = display_domain(true_domain);
        if (stats == nullptr) {
            trace.kb_per_domain[display] = 0.0;
            continue;
        }
        trace.kb_per_domain[display] = stats->kilobytes();
        trace.total_acr_kb += stats->kilobytes();
        auto& bucket = trace.per_domain[display];
        bucket.insert(bucket.end(), stats->events.begin(), stats->events.end());
        trace.acr_events.insert(trace.acr_events.end(), stats->events.begin(),
                                stats->events.end());
    }
    std::sort(trace.acr_events.begin(), trace.acr_events.end(),
              [](const analysis::PacketEvent& a, const analysis::PacketEvent& b) {
                  return a.timestamp < b.timestamp;
              });
    return trace;
}

ScenarioTrace trace_of(const ExperimentResult& result) {
    return trace_of(result, result.analyze());
}

obs::Registry merged_metrics(const std::vector<ScenarioTrace>& traces) {
    obs::Registry merged;
    for (const auto& trace : traces) merged.merge(trace.metrics);
    return merged;
}

obs::TraceLog merged_trace(const std::vector<ScenarioTrace>& traces) {
    obs::TraceLog log;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        if (traces[i].trace_events.empty()) continue;
        log.merge_from(traces[i].trace_events, static_cast<int>(i) + 1, traces[i].spec.name());
    }
    return log;
}

std::vector<std::string> CampaignRunner::table_row_domains(tv::Country country) {
    std::vector<std::string> rows;
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        for (const auto& domain : tv::platform_profile(brand, country).acr_domains) {
            rows.push_back(domain.rotates ? display_domain(tv::rotated_name(domain.name, 0))
                                          : domain.name);
        }
    }
    return rows;
}

std::vector<ScenarioTrace> CampaignRunner::run_sweep(tv::Country country, tv::Phase phase,
                                                     SimTime duration, std::uint64_t seed) {
    return run_sweep(country, phase, duration, seed, default_jobs());
}

std::vector<ScenarioTrace> CampaignRunner::run_sweep(tv::Country country, tv::Phase phase,
                                                     SimTime duration, std::uint64_t seed,
                                                     int jobs) {
    MatrixSpec matrix;
    matrix.countries = {country};
    matrix.phases = {phase};
    matrix.duration = duration;
    matrix.seed = seed;
    return MatrixRunner(jobs).run(matrix);
}

analysis::Table CampaignRunner::make_table(const std::vector<ScenarioTrace>& traces,
                                           tv::Country country, tv::Phase phase) {
    analysis::Table table;
    table.title = "KB sent/received to/from ACR domains per scenario, " + to_string(phase) +
                  " in " + to_string(country);
    table.header = {"Domain Name"};
    for (const tv::Scenario scenario : tv::kAllScenarios) {
        table.header.push_back(tv::table_label(scenario));
    }

    for (const auto& domain : table_row_domains(country)) {
        std::vector<std::string> row = {domain};
        for (const tv::Scenario scenario : tv::kAllScenarios) {
            double kb = 0.0;
            for (const auto& trace : traces) {
                if (trace.spec.scenario != scenario) continue;
                const auto it = trace.kb_per_domain.find(domain);
                if (it != trace.kb_per_domain.end()) kb += it->second;
            }
            row.push_back(format_kb(kb));
        }
        table.rows.push_back(std::move(row));
    }
    return table;
}

}  // namespace tvacr::core
