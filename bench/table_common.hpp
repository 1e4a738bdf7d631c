// Shared harness for the Tables 2-5 reproductions: runs the scenario sweep
// for one (country, phase), prints the measured table next to the paper's
// published numbers, scores the agreement, and validates every experiment
// with the paper's validation-script checks. Set TVACR_BENCH_OUT=<dir> to
// also write markdown + JSON artifacts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/compare.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/matrix_runner.hpp"
#include "core/paper.hpp"
#include "core/validation.hpp"
#include "obs/io.hpp"

namespace tvacr::bench {

/// Observability knobs shared by the table/figure benches: --jobs N (else
/// TVACR_JOBS / hardware concurrency, core::default_jobs; results are
/// identical for any value), --metrics <file> (merged deterministic metrics,
/// byte-identical for any jobs value) and --trace <file> (sim-time spans +
/// wall-clock runner profiling as a Chrome trace_event file; ".csv" switches
/// either to CSV).
struct ObsOptions {
    int jobs = 1;
    std::string metrics_path;
    std::string trace_path;

    [[nodiscard]] bool trace_enabled() const noexcept { return !trace_path.empty(); }
};

inline int obs_usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--jobs N] [--metrics m.json] [--trace t.json]\n", argv0);
    return 2;
}

[[nodiscard]] inline ObsOptions parse_obs(int argc, char** argv) {
    ObsOptions options;
    int jobs = 0;  // 0: not given, so TVACR_JOBS is read only then
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--jobs", jobs, 1, 1024},
            {"--metrics", options.metrics_path},
            {"--trace", options.trace_path},
        },
        obs_usage);
    if (!positionals.empty()) std::exit(obs_usage(argv[0]));
    options.jobs = jobs > 0 ? jobs : core::default_jobs();
    return options;
}

/// Writes the --metrics/--trace outputs for a finished sweep and prints a
/// wall-clock profile summary (selection-based percentiles over the
/// runner's per-cell timings). The profile scope's wall-clock data goes
/// only into the trace file, never into the deterministic metrics output.
inline void emit_obs(const ObsOptions& options, const std::vector<core::ScenarioTrace>& traces,
                     const obs::Scope& profile) {
    if (!profile.trace.empty()) {
        std::vector<double> run_us;
        for (const auto& event : profile.trace.events()) {
            if (event.category == "runner" && event.phase == 'X') {
                run_us.push_back(static_cast<double>(event.dur_us));
            }
        }
        if (!run_us.empty()) {
            const std::span<double> span(run_us);
            std::printf("Per-cell run time: p50 %.0f ms, p95 %.0f ms over %zu cells\n",
                        percentile(span, 0.5) / 1000.0, percentile(span, 0.95) / 1000.0,
                        run_us.size());
        }
    }
    if (!options.metrics_path.empty()) {
        if (obs::write_metrics_file(options.metrics_path, core::merged_metrics(traces))) {
            std::printf("(metrics written to %s)\n", options.metrics_path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", options.metrics_path.c_str());
        }
    }
    if (options.trace_enabled()) {
        obs::TraceLog log = core::merged_trace(traces);
        log.merge_from(profile.trace.events(), 0, "runner");
        if (obs::write_trace_file(options.trace_path, log)) {
            std::printf("(trace written to %s)\n", options.trace_path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
        }
    }
}

/// Duration used for the table reproductions. The paper runs 1 h; that is
/// also our default (override with TVACR_BENCH_MINUTES for quick looks).
[[nodiscard]] inline SimTime bench_duration() {
    const long long minutes = common::parse_env_int("TVACR_BENCH_MINUTES", 60, 1, 1 << 24);
    return SimTime::minutes(minutes);
}

/// Artifact output directory (empty = disabled).
[[nodiscard]] inline std::string bench_out_dir() {
    const char* env = std::getenv("TVACR_BENCH_OUT");
    return env != nullptr ? env : "";
}

inline void write_artifact(const std::string& name, const std::string& content) {
    const std::string dir = bench_out_dir();
    if (dir.empty()) return;
    std::ofstream file(dir + "/" + name);
    file << content;
}

/// Scales a measured KB value to the paper's 1-hour basis when a shorter
/// duration was requested via the environment.
[[nodiscard]] inline double to_hourly(double kb, SimTime duration) {
    return kb * (3600.0 / duration.as_seconds());
}

inline int run_table_bench(tv::Country country, tv::Phase phase, const char* table_name,
                           const ObsOptions& obs_options) {
    const int jobs = obs_options.jobs;
    const SimTime duration = bench_duration();
    std::cout << "Reproducing " << table_name << ": KB to/from ACR domains, "
              << to_string(phase) << " in " << to_string(country) << " ("
              << duration.as_seconds() / 60 << " min per experiment, scaled to 1 h, " << jobs
              << " job(s))\n\n";

    core::MatrixSpec matrix;
    matrix.countries = {country};
    matrix.phases = {phase};
    matrix.duration = duration;
    matrix.seed = 2024;
    matrix.trace = obs_options.trace_enabled();
    core::MatrixRunner runner(jobs);
    obs::Scope profile;
    if (obs_options.trace_enabled()) runner.set_profile(&profile);
    const auto traces = runner.run(matrix);

    analysis::Table table;
    table.header = {"Domain Name"};
    for (const tv::Scenario scenario : tv::kAllScenarios) {
        table.header.push_back(tv::table_label(scenario));
        table.header.push_back("(paper)");
    }

    analysis::Comparison comparison(/*factor=*/2.0);
    for (const auto& domain : core::CampaignRunner::table_row_domains(country)) {
        std::vector<std::string> row = {domain};
        for (const tv::Scenario scenario : tv::kAllScenarios) {
            double kb = 0.0;
            for (const auto& trace : traces) {
                if (trace.spec.scenario != scenario) continue;
                const auto it = trace.kb_per_domain.find(domain);
                if (it != trace.kb_per_domain.end()) kb += it->second;
            }
            kb = to_hourly(kb, duration);
            const auto paper = core::paper_kb(country, phase, domain, scenario);
            row.push_back(format_kb(kb));
            row.push_back(paper ? format_kb(*paper) : "-");
            comparison.add(
                analysis::ComparedCell{domain, tv::table_label(scenario), kb, paper});
        }
        table.rows.push_back(std::move(row));
    }
    std::cout << table.render() << "\n";

    const auto summary = comparison.summarize();
    std::printf("Comparable cells: %d; within 2x of paper: %d; geometric mean ratio: %.2f\n",
                summary.cells_compared, summary.within_factor, summary.geometric_mean_ratio);
    std::printf("Absence agreements ('-' both sides): %d; absence mismatches: %d\n",
                summary.absent_agreements, summary.absence_mismatches);
    if (summary.worst_ratio > 1.0) {
        std::printf("Worst cell: %s (%.2fx)\n", summary.worst_cell.c_str(),
                    summary.worst_ratio);
    }

    // Validation-script pass over every experiment in the sweep. Traces do
    // not retain captures, so validation runs on fresh spot-check
    // experiments, one per brand, through the same parallel engine.
    std::vector<core::ExperimentSpec> spot_specs;
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        core::ExperimentSpec spec;
        spec.brand = brand;
        spec.country = country;
        spec.scenario = tv::Scenario::kLinear;
        spec.phase = phase;
        spec.duration = std::min(duration, SimTime::minutes(10));
        spec.seed = 2024;
        spot_specs.push_back(spec);
    }
    int validation_failures = 0;
    for (const auto& result : core::MatrixRunner(jobs).run_experiments(spot_specs)) {
        const auto validation = core::validate_experiment(result);
        if (!validation.all_passed()) {
            ++validation_failures;
            std::cout << "\nValidation failures (" << to_string(result.spec.brand) << "):\n"
                      << validation.render();
        }
    }
    std::printf("Validation-script spot checks: %s\n",
                validation_failures == 0 ? "all passed" : "FAILURES");

    // Optional artifacts.
    const std::string slug = std::string(table_name);
    write_artifact(slug + ".md", comparison.to_markdown("Domain"));
    write_artifact(slug + ".json", core::sweep_to_json(traces, country, phase));
    emit_obs(obs_options, traces, profile);
    return validation_failures == 0 ? 0 : 1;
}

}  // namespace tvacr::bench
