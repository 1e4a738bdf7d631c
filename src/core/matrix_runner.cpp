#include "core/matrix_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include "common/parse.hpp"
#include "common/thread_pool.hpp"

namespace tvacr::core {

int default_jobs() {
    const unsigned hardware = std::thread::hardware_concurrency();
    const int fallback = hardware >= 1 ? static_cast<int>(hardware) : 1;
    // Malformed TVACR_JOBS exits 2 naming the variable — a typo'd override
    // must not silently fall back to a different parallelism level.
    return static_cast<int>(common::parse_env_int("TVACR_JOBS", fallback, 1, 1024));
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

    common::ThreadPool pool(std::min<std::size_t>(static_cast<std::size_t>(jobs), specs.size()));
    std::vector<common::ThreadPool::TaskTiming> timings(specs.size());
    std::atomic<std::size_t> observed{0};
    if (profile != nullptr) {
        // Each observer call owns slot [sequence] exclusively; the release
        // increment pairs with the acquire loop below, which is needed
        // because the observer fires *after* the task's future is satisfied.
        pool.set_observer([&timings, &observed](const common::ThreadPool::TaskTiming& timing) {
            timings[timing.sequence] = timing;
            observed.fetch_add(1, std::memory_order_release);
        });
    }
    std::vector<std::future<Output>> futures;
    futures.reserve(specs.size());
    for (const auto& spec : specs) {
        // tvacr-lint: allow(no-ref-capture-into-threadpool) futures are
        // drained in submission order below, before job leaves scope
        futures.push_back(pool.submit([spec, &job]() { return job(spec); }));
    }
    // get() in submission order: completion order cannot reorder results,
    // and the first job exception propagates here.
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
