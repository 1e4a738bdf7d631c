// Parallel experiment-execution engine. The paper's results are sweeps of a
// {country x phase x scenario x brand} matrix where every cell is an
// independent ExperimentSpec with its own testbed (Simulator, Rng streams,
// Cloud); MatrixRunner expands such a matrix into jobs, runs them on a
// ThreadPool, and reassembles the results in matrix order regardless of
// completion order. Because each cell is a fully isolated deterministic
// simulation, the output is bit-identical for any worker count — the serial
// path (jobs == 1) never touches a thread and matches the historical
// single-core behaviour exactly.
#pragma once

#include <vector>

#include "core/campaign.hpp"
#include "obs/scope.hpp"

namespace tvacr::core {

/// Parallel-jobs knob shared by every sweep entry point: the TVACR_JOBS
/// environment variable when set (values < 1 clamp to 1), else the hardware
/// concurrency (at least 1).
[[nodiscard]] int default_jobs();

/// An experiment matrix. Cells enumerate country-major, then phase,
/// scenario, and brand innermost — the row order of the paper's tables.
struct MatrixSpec {
    std::vector<tv::Country> countries = {tv::Country::kUk};
    std::vector<tv::Phase> phases = {tv::Phase::kLInOIn};
    std::vector<tv::Scenario> scenarios = {tv::kAllScenarios.begin(), tv::kAllScenarios.end()};
    std::vector<tv::Brand> brands = {tv::Brand::kLg, tv::Brand::kSamsung};
    SimTime duration = SimTime::hours(1);
    std::uint64_t seed = 42;
    /// Propagated to every expanded spec: record sim-time trace spans.
    bool trace = false;
    /// Propagated to every expanded spec: the impairment scenario all cells
    /// run under (default: clean links).
    fault::FaultSpec faults;
};

class MatrixRunner {
  public:
    explicit MatrixRunner(int jobs = default_jobs());

    [[nodiscard]] int jobs() const noexcept { return jobs_; }

    /// Installs a profiling sink. While set, every run records wall-clock
    /// per-cell queue-wait and run time into it: one "runner"-category trace
    /// span per cell (tid = worker index) plus runner.queue_wait_us /
    /// runner.run_us histograms. Wall-clock data is nondeterministic by
    /// nature — keep the profile scope separate from the deterministic
    /// per-cell metrics (tools write it only into --trace output).
    void set_profile(obs::Scope* profile) noexcept { profile_ = profile; }
    [[nodiscard]] obs::Scope* profile() const noexcept { return profile_; }

    /// Flattens a matrix into specs, in deterministic matrix order.
    [[nodiscard]] static std::vector<ExperimentSpec> expand(const MatrixSpec& matrix);

    /// Runs every spec (each on a fresh isolated testbed) and returns the
    /// full results in input order. Exceptions from a job propagate to the
    /// caller. Captures can be large — prefer run_traces() for sweeps.
    [[nodiscard]] std::vector<ExperimentResult> run_experiments(
        const std::vector<ExperimentSpec>& specs) const;

    /// Runs every spec analyzed at the tap (ExperimentRunner::run_analyzed:
    /// no cell stores a frame) and reduces each to its ScenarioTrace inside
    /// the worker, in input order.
    [[nodiscard]] std::vector<ScenarioTrace> run_traces(
        const std::vector<ExperimentSpec>& specs) const;

    /// expand() + run_traces().
    [[nodiscard]] std::vector<ScenarioTrace> run(const MatrixSpec& matrix) const;

  private:
    int jobs_;
    obs::Scope* profile_ = nullptr;
};

}  // namespace tvacr::core
