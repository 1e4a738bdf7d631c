// Campaigns: scenario sweeps across both TV brands for one country and
// phase — the unit of work behind each of the paper's tables and figures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "core/experiment.hpp"

namespace tvacr::core {

/// Per-scenario ACR traffic extracted from one experiment.
struct ScenarioTrace {
    ExperimentSpec spec;
    /// Packet events towards any of the brand's ACR domains, time-ordered.
    std::vector<analysis::PacketEvent> acr_events;
    /// The same, split per ACR domain (display names, rotation collapsed to X).
    std::map<std::string, std::vector<analysis::PacketEvent>> per_domain;
    std::map<std::string, double> kb_per_domain;
    double total_acr_kb = 0.0;
    /// The cell's deterministic metrics and (when enabled) sim-time trace.
    obs::Registry metrics;
    std::vector<obs::TraceEvent> trace_events;
};

/// Collapses a rotated domain back to its display pattern, e.g.
/// "eu-acr3.alphonso.tv" -> "eu-acrX.alphonso.tv".
[[nodiscard]] std::string display_domain(const std::string& domain);

/// Extracts the ACR-domain traffic from an experiment result, given the
/// analysis of its capture.
[[nodiscard]] ScenarioTrace trace_of(const ExperimentResult& result,
                                     const analysis::CaptureAnalyzer& analyzer);
/// trace_of(result, result.analyze()) for a result that stored its frames.
[[nodiscard]] ScenarioTrace trace_of(const ExperimentResult& result);

/// Merges per-cell registries in input (matrix) order. Because each cell is
/// deterministic and the order is fixed, the merged registry — and its
/// serialized form — is byte-identical for any worker count.
[[nodiscard]] obs::Registry merged_metrics(const std::vector<ScenarioTrace>& traces);

/// Merges per-cell trace events into one log, one trace_event process per
/// cell (pid = cell index + 1, labeled with the spec name).
[[nodiscard]] obs::TraceLog merged_trace(const std::vector<ScenarioTrace>& traces);

class CampaignRunner {
  public:
    /// Row order for the paper's tables: LG's rotating domain first, then
    /// the Samsung domains for the country.
    [[nodiscard]] static std::vector<std::string> table_row_domains(tv::Country country);

    /// Runs both brands across all six scenarios for (country, phase) and
    /// collects each scenario's ACR trace. Results arrive in scenario order,
    /// LG and Samsung merged per scenario. `jobs` experiments run in
    /// parallel (default: the TVACR_JOBS environment variable, else the
    /// hardware concurrency); every experiment is an isolated deterministic
    /// simulation, so the results are identical for any worker count, and
    /// jobs == 1 runs serially on the calling thread.
    [[nodiscard]] static std::vector<ScenarioTrace> run_sweep(tv::Country country,
                                                              tv::Phase phase, SimTime duration,
                                                              std::uint64_t seed);
    [[nodiscard]] static std::vector<ScenarioTrace> run_sweep(tv::Country country,
                                                              tv::Phase phase, SimTime duration,
                                                              std::uint64_t seed, int jobs);

    /// Renders a sweep as a paper-style table (domains x scenarios, KB).
    [[nodiscard]] static analysis::Table make_table(const std::vector<ScenarioTrace>& traces,
                                                    tv::Country country, tv::Phase phase);
};

}  // namespace tvacr::core
