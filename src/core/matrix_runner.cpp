#include "core/matrix_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <thread>

#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "tv/calibration.hpp"

namespace tvacr::core {

int default_jobs() {
    const unsigned hardware = std::thread::hardware_concurrency();
    const int fallback = hardware >= 1 ? static_cast<int>(hardware) : 1;
    // Malformed TVACR_JOBS exits 2 naming the variable — a typo'd override
    // must not silently fall back to a different parallelism level.
    return static_cast<int>(common::parse_env_int("TVACR_JOBS", fallback, 1, 1024));
}

namespace {

// Weights of estimated_cost, in ms per simulated hour: the fit to the serial
// profile of the 96 paper cells (EXPERIMENTS.md). A fingerprinting cell pays
// a fixed matching cost plus a per-capture cost, so LG's 360,000 captures an
// hour cost about twice Samsung's 7,200.
constexpr double kBaseMs = 1.3;            // every cell
constexpr double kOptedInMs = 1.0;         // traffic that runs only while opted in
constexpr double kStreamMs = 65.0;         // the OTT scenario's CDN video flow
constexpr double kFingerprintMs = 49.0;    // a fingerprinting cell's fixed share
constexpr double kPerCaptureMs = 1.64e-4;  // one fingerprint capture

}  // namespace

double estimated_cost(const ExperimentSpec& spec) {
    const bool opted_in = tv::is_opted_in(spec.phase);
    double per_hour = kBaseMs;
    if (opted_in) per_hour += kOptedInMs;
    if (spec.scenario == tv::Scenario::kOtt) per_hour += kStreamMs;
    if (opted_in &&
        tv::acr_mode_for(spec.brand, spec.country, spec.scenario) == tv::AcrMode::kActive) {
        const SimTime capture_period = tv::acr_schedule(spec.brand).capture_period;
        per_hour += kFingerprintMs +
                    kPerCaptureMs * static_cast<double>(SimTime::hours(1) / capture_period);
    }
    return per_hour * (spec.duration.as_seconds() / 3600.0);
}

std::vector<std::size_t> costliest_first(const std::vector<ExperimentSpec>& specs) {
    std::vector<double> costs;
    costs.reserve(specs.size());
    for (const auto& spec : specs) costs.push_back(estimated_cost(spec));
    std::vector<std::size_t> order(specs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&costs](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
    return order;
}

MatrixRunner::MatrixRunner(int jobs) : jobs_(std::max(jobs, 1)) {}

std::vector<ExperimentSpec> MatrixRunner::expand(const MatrixSpec& matrix) {
    std::vector<ExperimentSpec> specs;
    specs.reserve(matrix.countries.size() * matrix.phases.size() * matrix.scenarios.size() *
                  matrix.brands.size());
    for (const tv::Country country : matrix.countries) {
        for (const tv::Phase phase : matrix.phases) {
            for (const tv::Scenario scenario : matrix.scenarios) {
                for (const tv::Brand brand : matrix.brands) {
                    ExperimentSpec spec;
                    spec.brand = brand;
                    spec.country = country;
                    spec.scenario = scenario;
                    spec.phase = phase;
                    spec.duration = matrix.duration;
                    spec.seed = matrix.seed;
                    spec.trace = matrix.trace;
                    spec.faults = matrix.faults;
                    specs.push_back(spec);
                }
            }
        }
    }
    return specs;
}

namespace {

/// Writes per-cell wall-clock timings into the profile scope: one trace span
/// per cell (category "runner", tid = worker index) plus queue-wait/run-time
/// histograms. Profiling data never reaches the deterministic per-cell
/// registries — it lives only in the caller-provided profile scope.
void record_profile(obs::Scope& profile, const std::vector<ExperimentSpec>& specs,
                    const std::vector<common::ThreadPool::TaskTiming>& timings) {
    auto queue_wait = profile.metrics.histogram("runner.queue_wait_us");
    auto run_time = profile.metrics.histogram("runner.run_us");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto& timing = timings[i];
        const double queue_wait_us = static_cast<double>(timing.queue_wait_ns()) / 1000.0;
        const double run_us = static_cast<double>(timing.run_ns()) / 1000.0;
        queue_wait.observe(queue_wait_us);
        run_time.observe(run_us);
        obs::TraceEvent event;
        event.name = specs[i].name();
        event.category = "runner";
        event.phase = 'X';
        event.ts_us = timing.start_ns / 1000;
        event.dur_us = timing.run_ns() / 1000;
        event.tid = static_cast<int>(timing.worker);
        event.args = {{"queue_wait_us", std::to_string(static_cast<std::int64_t>(queue_wait_us))}};
        profile.trace.append(std::move(event));
    }
}

/// Runs `job(spec)` for every spec, on `jobs` workers when that pays off,
/// and returns the outputs in input order. The serial path runs on the
/// caller's thread with no pool at all. When `profile` is non-null, per-cell
/// queue-wait and run time are recorded into it on either path.
template <typename Job>
auto run_in_order(const std::vector<ExperimentSpec>& specs, int jobs, obs::Scope* profile,
                  Job job) {
    using Output = decltype(job(specs.front()));
    std::vector<Output> outputs;
    outputs.reserve(specs.size());
    if (jobs <= 1 || specs.size() <= 1) {
        std::vector<common::ThreadPool::TaskTiming> timings(specs.size());
        const auto epoch = std::chrono::steady_clock::now();
        const auto since_epoch_ns = [epoch]() {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - epoch)
                .count();
        };
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto& timing = timings[i];
            timing.sequence = i;
            timing.enqueue_ns = since_epoch_ns();
            timing.start_ns = timing.enqueue_ns;  // no queue on the serial path
            outputs.push_back(job(specs[i]));
            timing.finish_ns = since_epoch_ns();
        }
        if (profile != nullptr) record_profile(*profile, specs, timings);
        return outputs;
    }

    // Longest-processing-time list scheduling: the pool's FIFO queue hands
    // the costliest cells out first, so no long cell starts last and leaves
    // the other workers idle. Everything the observer touches is declared
    // before the pool, which drains its queue on destruction even when a
    // get() below throws.
    const std::vector<std::size_t> order = costliest_first(specs);
    std::vector<common::ThreadPool::TaskTiming> timings(specs.size());
    std::atomic<std::size_t> observed{0};
    common::ThreadPool pool(std::min<std::size_t>(static_cast<std::size_t>(jobs), specs.size()));
    if (profile != nullptr) {
        // A task's sequence is its submission rank; order[] maps it back to
        // the spec it ran, and each spec's slot has one writer. The release
        // increment pairs with the acquire loop below, which is needed
        // because the observer fires *after* the task's future is satisfied.
        pool.set_observer([&timings, &order,
                           &observed](const common::ThreadPool::TaskTiming& timing) {
            timings[order[timing.sequence]] = timing;
            observed.fetch_add(1, std::memory_order_release);
        });
    }
    std::vector<std::future<Output>> futures(specs.size());
    for (const std::size_t index : order) {
        const ExperimentSpec& spec = specs[index];
        // tvacr-lint: allow(no-ref-capture-into-threadpool) every future is
        // drained below, before job leaves scope
        futures[index] = pool.submit([spec, &job]() { return job(spec); });
    }
    // get() in input order: neither submission nor completion order can
    // reorder results, and the first job exception in input order
    // propagates here.
    for (auto& future : futures) outputs.push_back(future.get());
    if (profile != nullptr) {
        while (observed.load(std::memory_order_acquire) < specs.size()) {
            std::this_thread::yield();
        }
        record_profile(*profile, specs, timings);
    }
    return outputs;
}

}  // namespace

std::vector<ExperimentResult> MatrixRunner::run_experiments(
    const std::vector<ExperimentSpec>& specs) const {
    return run_in_order(specs, jobs_, profile_,
                        [](const ExperimentSpec& spec) { return ExperimentRunner::run(spec); });
}

std::vector<ScenarioTrace> MatrixRunner::run_traces(
    const std::vector<ExperimentSpec>& specs) const {
    return run_in_order(specs, jobs_, profile_, [](const ExperimentSpec& spec) {
        const AnalyzedExperiment run = ExperimentRunner::run_analyzed(spec);
        return trace_of(run.result, run.analysis);
    });
}

std::vector<ScenarioTrace> MatrixRunner::run(const MatrixSpec& matrix) const {
    return run_traces(expand(matrix));
}

}  // namespace tvacr::core
