// tvacr_fleet — population-scale ACR traffic simulation.
//
//   tvacr_fleet --households N [--jobs N] [--shards N] [--seed S]
//               [--spec POPULATION] [--faults FAULTSPEC]
//               [--sample-every K] [--sample-pcap PREFIX | --sample-tvcr PREFIX]
//               [--out aggregates.json] [--metrics metrics.json] [--top N]
//
// Samples N households from the population spec (see fleet::PopulationSpec;
// "canonical" gives the reference mix), simulates each household's day as a
// deterministic flow-event stream, and merges the streamed per-shard
// aggregates. The printed summary, the JSON report, and the metrics file
// are byte-identical for every --jobs/--shards value — the fleet is
// shared-nothing and the merge is purely additive.
//
// The fleet never materializes packets; pass --sample-every K with
// --sample-pcap/--sample-tvcr to mirror every K-th household (id % K == 0)
// to "<PREFIX><id>.pcap|.tvcr" for spot-checking with tvacr_analyze.
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "common/file_io.hpp"
#include "common/flags.hpp"
#include "common/signal.hpp"
#include "common/thread_pool.hpp"
#include "fleet/runner.hpp"
#include "obs/io.hpp"

using namespace tvacr;

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --households N [--jobs N] [--shards N] [--seed S]\n"
                 "          [--spec POPULATION|canonical] [--faults FAULTSPEC]\n"
                 "          [--sample-every K] [--sample-pcap PREFIX | --sample-tvcr PREFIX]\n"
                 "          [--out aggregates.json] [--metrics metrics.json] [--top N]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t households = 0;
    long jobs = 1;
    std::size_t shards = 0;
    fleet::FleetOptions options;
    std::string spec_text;
    std::string out_path;
    std::string metrics_path;
    std::size_t top_n = 10;
    const auto positionals = common::parse_flags(
        argc, argv,
        {
            {"--households", households},
            {"--jobs", jobs, 1, 1024},
            {"--shards", shards, 0, 1 << 20},
            {"--seed", options.seed},
            {"--spec", spec_text},
            {"--faults",
             [&](std::string_view v) {
                 const auto parsed = fault::parse_fault_spec(v);
                 if (!parsed.spec) {
                     std::fprintf(stderr, "bad --faults: %s\n", parsed.error.c_str());
                 }
                 options.faults = parsed.spec.value_or(options.faults);
                 return parsed.spec.has_value();
             }},
            {"--sample-every", options.sample_every},
            {"--sample-pcap",
             [&](std::string_view v) {
                 options.sample_prefix = v;
                 options.sample_format = fleet::SampleFormat::kPcap;
                 return true;
             }},
            {"--sample-tvcr",
             [&](std::string_view v) {
                 options.sample_prefix = v;
                 options.sample_format = fleet::SampleFormat::kTvcr;
                 return true;
             }},
            {"--out", out_path},
            {"--metrics", metrics_path},
            {"--top", top_n, 0, 1 << 20},
        },
        usage);
    if (households == 0 || !positionals.empty()) return usage(argv[0]);
    if (options.sample_every != 0 && options.sample_prefix.empty()) {
        std::fprintf(stderr, "--sample-every needs --sample-pcap or --sample-tvcr\n");
        return 2;
    }

    const auto parsed = fleet::parse_population_spec(spec_text);
    if (!parsed.spec.has_value()) {
        std::fprintf(stderr, "bad --spec: %s\n", parsed.error.c_str());
        return 2;
    }
    options.households = households;
    std::unique_ptr<ThreadPool> pool;
    if (jobs > 1) {
        pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(jobs));
        options.pool = pool.get();
    }
    options.shards = shards;

    // Sample sinks and reports are finalized (tmp+rename), so an interrupt
    // leaves complete-or-absent files; the exit code reports it.
    common::install_shutdown_handlers();

    const fleet::FleetRunner runner(*parsed.spec);
    auto result = runner.run(options);
    if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.error().message.c_str());
        return 1;
    }
    const auto& agg = result.value();
    std::fputs(agg.summary(top_n).c_str(), stdout);

    if (!out_path.empty()) {
        const std::string json = agg.to_json();
        const auto written = common::write_file_finalized(out_path, [&](std::ostream& out) {
            out.write(json.data(), static_cast<std::streamsize>(json.size()));
            return out.good() ? Status::success()
                              : Status(make_error("failed to write " + out_path));
        });
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().message.c_str());
            return 1;
        }
    }
    if (!metrics_path.empty() && !obs::write_metrics_file(metrics_path, agg.metrics)) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
        return 1;
    }
    if (common::shutdown_requested()) {
        std::fprintf(stderr, "interrupted; outputs finalized\n");
        return 130;
    }
    return 0;
}
