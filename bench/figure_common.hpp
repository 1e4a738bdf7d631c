// Shared harness for the figure reproductions (Figures 4-11): 10-minute
// packet-timing panels per scenario and cumulative-transfer curves per
// phase, rendered as terminal sparklines and CSV series.
#pragma once

#include <iostream>

#include "analysis/cdf.hpp"
#include "analysis/report.hpp"
#include "core/campaign.hpp"
#include "table_common.hpp"

namespace tvacr::bench {

/// Ten minutes of ACR traffic per scenario for one brand — one panel per
/// scenario, packets per 200 ms bucket (the paper plots per-millisecond
/// spikes; 200 ms buckets keep the sparkline readable at terminal width
/// while preserving burst structure).
inline void print_traffic_figure(const char* figure_name, tv::Brand brand, tv::Country country,
                                 tv::Phase phase, const std::vector<core::ScenarioTrace>& traces) {
    const SimTime window_start = SimTime::minutes(5);
    const SimTime window = SimTime::minutes(10);
    const SimTime bucket = SimTime::millis(200);

    std::vector<analysis::FigurePanel> panels;
    for (const auto& trace : traces) {
        if (trace.spec.brand != brand) continue;
        analysis::FigurePanel panel;
        panel.label = to_string(trace.spec.scenario);
        panel.series = analysis::bucketize(trace.acr_events, window_start, window, bucket,
                                           analysis::SeriesMetric::kPackets);
        panels.push_back(std::move(panel));
    }
    std::cout << render_figure(std::string(figure_name) + " — 10 min of ACR traffic, " +
                                   to_string(brand) + ", " + to_string(phase) + ", " +
                                   to_string(country) + " (packets / 200 ms)",
                               panels)
              << "\n";
    for (const auto& panel : panels) {
        write_artifact(std::string(figure_name) + "_" + to_string(brand) + "_" + panel.label +
                           ".csv",
                       analysis::series_to_csv(panel.series));
    }
}

/// Figure 4/6-style bench: run the sweep once, print LG and Samsung panels.
inline int run_traffic_figure_bench(const char* figure_name, tv::Country country,
                                    const ObsOptions& obs_options) {
    const SimTime duration = bench_duration();
    core::MatrixSpec matrix;
    matrix.countries = {country};
    matrix.phases = {tv::Phase::kLInOIn};
    matrix.duration = duration;
    matrix.seed = 2024;
    matrix.trace = obs_options.trace_enabled();
    core::MatrixRunner runner(obs_options.jobs);
    obs::Scope profile;
    if (obs_options.trace_enabled()) runner.set_profile(&profile);
    const auto traces = runner.run(matrix);
    print_traffic_figure((std::string(figure_name) + "a").c_str(), tv::Brand::kLg, country,
                         tv::Phase::kLInOIn, traces);
    print_traffic_figure((std::string(figure_name) + "b").c_str(), tv::Brand::kSamsung, country,
                         tv::Phase::kLInOIn, traces);

    // Quantitative shape check the paper reports: Linear/HDMI peaks dwarf
    // the other scenarios ("peaks get reduced by up to 12x").
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        double loud = 0.0;  // max KB among Linear/HDMI
        double quiet = 0.0; // max KB among Idle/OTT/ScreenCast
        for (const auto& trace : traces) {
            if (trace.spec.brand != brand) continue;
            const bool is_loud = trace.spec.scenario == tv::Scenario::kLinear ||
                                 trace.spec.scenario == tv::Scenario::kHdmi;
            const bool is_quiet = trace.spec.scenario == tv::Scenario::kIdle ||
                                  trace.spec.scenario == tv::Scenario::kOtt ||
                                  trace.spec.scenario == tv::Scenario::kScreenCast;
            if (is_loud) loud = std::max(loud, trace.total_acr_kb);
            if (is_quiet) quiet = std::max(quiet, trace.total_acr_kb);
        }
        std::printf("%s: Linear/HDMI vs quiet-scenario ACR volume: %.0fx\n",
                    to_string(brand).c_str(), quiet > 0 ? loud / quiet : 0.0);
    }
    emit_obs(obs_options, traces, profile);
    return 0;
}

/// Figure 5/7-style bench: cumulative bytes to ACR domains over time for the
/// two opted-in phases, per brand+scenario; prints the KS-style gap between
/// logged-in and logged-out curves (the paper: login status has no material
/// impact).
inline int run_cdf_figure_bench(const char* figure_name, tv::Country country,
                                const ObsOptions& obs_options) {
    // Both opted-in phases in one 2x6x2 matrix, split back afterwards — the
    // engine keeps all 24 experiments in flight together.
    core::MatrixSpec matrix;
    matrix.countries = {country};
    matrix.phases = {tv::Phase::kLInOIn, tv::Phase::kLOutOIn};
    matrix.duration = bench_duration();
    matrix.seed = 2024;
    matrix.trace = obs_options.trace_enabled();
    const SimTime duration = matrix.duration;
    core::MatrixRunner runner(obs_options.jobs);
    obs::Scope profile;
    if (obs_options.trace_enabled()) runner.set_profile(&profile);
    const auto all_traces = runner.run(matrix);
    std::vector<core::ScenarioTrace> in_traces;
    std::vector<core::ScenarioTrace> out_traces;
    for (const auto& trace : all_traces) {
        (trace.spec.phase == tv::Phase::kLInOIn ? in_traces : out_traces).push_back(trace);
    }

    std::cout << figure_name << " — cumulative bytes to ACR domains over time, " << to_string(country)
              << " (normalized; gap = max |LIn-OIn - LOut-OIn|)\n\n";
    std::printf("%-10s %-12s %14s %14s %8s\n", "Brand", "Scenario", "LIn-OIn KB", "LOut-OIn KB",
                "gap");
    for (const auto& in_trace : in_traces) {
        for (const auto& out_trace : out_traces) {
            if (in_trace.spec.brand != out_trace.spec.brand ||
                in_trace.spec.scenario != out_trace.spec.scenario) {
                continue;
            }
            const auto curve_in = analysis::cumulative_bytes(in_trace.acr_events);
            const auto curve_out = analysis::cumulative_bytes(out_trace.acr_events);
            write_artifact(std::string(figure_name) + "_" + to_string(in_trace.spec.brand) +
                               "_" + to_string(in_trace.spec.scenario) + "_LInOIn.csv",
                           analysis::cumulative_to_csv(curve_in));
            write_artifact(std::string(figure_name) + "_" + to_string(in_trace.spec.brand) +
                               "_" + to_string(in_trace.spec.scenario) + "_LOutOIn.csv",
                           analysis::cumulative_to_csv(curve_out));
            const double gap = analysis::max_fraction_gap(curve_in, curve_out, SimTime{},
                                                          duration, SimTime::seconds(10));
            std::printf("%-10s %-12s %14.1f %14.1f %7.1f%%\n",
                        to_string(in_trace.spec.brand).c_str(),
                        to_string(in_trace.spec.scenario).c_str(), in_trace.total_acr_kb,
                        out_trace.total_acr_kb, gap * 100.0);
        }
    }
    std::cout << "\n";
    emit_obs(obs_options, all_traces, profile);
    return 0;
}

}  // namespace tvacr::bench
