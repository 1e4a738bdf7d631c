// bench_fleet — throughput benchmark and determinism gate for the
// population-scale fleet simulation.
//
//   bench_fleet [--out BENCH_fleet.json]
//   TVACR_BENCH_HOUSEHOLDS=N   population size (default 100000)
//
// Simulates the canonical population at several worker counts (fixed shard
// count, so the partitioning is identical and only scheduling varies) and
// several shard counts (different partitioning, so the merge grouping
// varies too). Every run must produce byte-identical aggregate JSON — the
// process exits non-zero on the first divergence, which makes this binary
// double as the fleet's CI determinism sweep. Throughput lands in
// BENCH_fleet.json as households/sec and bytes-simulated/sec.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "common/flags.hpp"
#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "fleet/runner.hpp"

using namespace tvacr;

namespace {

double now_seconds() {
    using clock = std::chrono::steady_clock;  // tvacr-lint: allow(no-wallclock) bench timing
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct RunResult {
    long jobs = 0;
    std::size_t shards = 0;
    double seconds = 0.0;
    std::string json;
    std::uint64_t bytes = 0;
};

int usage(const char* argv0) {
    std::fprintf(stderr, "usage: %s [--out BENCH_fleet.json]\n", argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_fleet.json";
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--out", out_path},
        },
        usage);
    if (!positionals.empty()) return usage(argv[0]);
    const std::uint64_t households = static_cast<std::uint64_t>(
        common::parse_env_int("TVACR_BENCH_HOUSEHOLDS", 100000, 1, 1LL << 40));

    const fleet::PopulationSpec spec = fleet::canonical_population_spec();
    const fleet::FleetRunner runner(spec);

    // Worker sweep at fixed partitioning, then partition sweep at fixed
    // workers. One list, so every result is compared against every other.
    struct Config {
        long jobs;
        std::size_t shards;
    };
    const std::vector<Config> configs = {
        {1, 8}, {4, 8}, {8, 8},  // scheduling must not matter
        {4, 1}, {4, 4},          // merge grouping must not matter either
    };

    std::vector<RunResult> runs;
    for (const auto& config : configs) {
        common::ThreadPool pool(static_cast<std::size_t>(config.jobs));
        fleet::FleetOptions options;
        options.households = households;
        options.seed = 42;
        options.pool = config.jobs > 1 ? &pool : nullptr;
        options.shards = config.shards;
        const double t0 = now_seconds();
        const auto result = runner.run(options);
        const double t1 = now_seconds();
        if (!result.ok()) {
            std::fprintf(stderr, "fleet run failed: %s\n", result.error().message.c_str());
            return 1;
        }
        RunResult run;
        run.jobs = config.jobs;
        run.shards = config.shards;
        run.seconds = t1 - t0;
        run.json = result.value().to_json();
        run.bytes = result.value().bytes_up + result.value().bytes_down;
        std::printf("jobs=%ld shards=%zu: %.2fs, %.0f households/s, %.1f MB simulated\n",
                    config.jobs, config.shards, run.seconds,
                    static_cast<double>(households) / run.seconds,
                    static_cast<double>(run.bytes) / 1e6);
        runs.push_back(std::move(run));
    }

    bool identical = true;
    for (std::size_t i = 1; i < runs.size(); ++i) {
        if (runs[i].json != runs[0].json) {
            identical = false;
            std::fprintf(stderr,
                         "DIVERGENCE: jobs=%ld shards=%zu aggregates differ from jobs=%ld "
                         "shards=%zu\n",
                         runs[i].jobs, runs[i].shards, runs[0].jobs, runs[0].shards);
        }
    }

    analysis::JsonWriter json;
    json.begin_object();
    json.key("bench").value("fleet");
    json.key("households").value(households);
    json.key("spec").value(spec.to_string());
    json.key("identical").value(identical);
    json.key("bytes_simulated").value(runs[0].bytes);
    json.key("runs");
    json.begin_array();
    for (const auto& run : runs) {
        json.begin_object();
        json.key("jobs").value(static_cast<std::int64_t>(run.jobs));
        json.key("shards").value(static_cast<std::uint64_t>(run.shards));
        json.key("seconds").value(run.seconds);
        json.key("households_per_sec").value(static_cast<double>(households) / run.seconds);
        json.key("bytes_simulated_per_sec").value(static_cast<double>(run.bytes) / run.seconds);
        json.end_object();
    }
    json.end_array();
    json.end_object();
    std::ofstream out(out_path, std::ios::binary);
    out << std::move(json).take() << "\n";

    if (!identical) return 1;
    std::printf("aggregates byte-identical across %zu configurations\n", runs.size());
    return 0;
}
