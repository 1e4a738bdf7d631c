// Reproduces the paper's §4.1 timing inference: from packet timestamps alone,
// recover each ACR endpoint's contact cadence — LG uploads every 15 s with
// one-minute peaks; Samsung's fingerprint channel every 60 s with ~5-minute
// peaks; and the regular cadence that separates ACR endpoints from ordinary
// ad/tracking domains such as samsungads.com. Exits 1 unless both UK
// fingerprint channels show the paper's cadence and period.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analysis/timeseries.hpp"
#include "core/campaign.hpp"
#include "table_common.hpp"

using namespace tvacr;

int main() {
    const SimTime duration = bench::bench_duration();
    std::cout << "Burst-cadence inference from traffic timing (paper §4.1)\n\n";
    std::printf("%-8s %-36s %8s %10s %8s %8s\n", "Brand", "Domain", "bursts", "interval",
                "cv", "period");

    constexpr int kHeadlineChecks = 4;  // two per UK fingerprint domain
    int checks_passed = 0;
    int checks_total = 0;
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        core::ExperimentSpec spec;
        spec.brand = brand;
        spec.country = tv::Country::kUk;
        spec.scenario = tv::Scenario::kLinear;
        spec.phase = tv::Phase::kLInOIn;
        spec.duration = duration;
        spec.seed = 2024;
        const auto analyzer = core::ExperimentRunner::run_analyzed(spec).analysis;

        for (const auto* stats : analyzer.domains_by_bytes()) {
            const auto bursts = analysis::find_bursts(stats->events, SimTime::seconds(5));
            const auto cadence = analysis::burst_cadence(bursts);
            if (cadence.bursts < 3) continue;
            const double period = analysis::dominant_period_seconds(
                stats->events, duration, SimTime::seconds(5), SimTime::minutes(10));
            std::printf("%-8s %-36s %8zu %9.1fs %7.2f %7.0fs\n", to_string(brand).c_str(),
                        stats->domain.c_str(), cadence.bursts, cadence.mean_interval_s,
                        cadence.cv, period);

            // The paper's headline cadences: the burst interval and the
            // autocorrelation period of each UK fingerprint channel, the
            // period within one 500 ms bucket of the paper's.
            if (stats->domain.find("alphonso") != std::string::npos) {
                checks_total += 2;
                if (cadence.mean_interval_s > 13 && cadence.mean_interval_s < 17) ++checks_passed;
                if (std::abs(period - 15.0) <= 0.5) ++checks_passed;
            }
            if (stats->domain.find("acr-eu-prd") != std::string::npos) {
                checks_total += 2;
                if (cadence.mean_interval_s > 50 && cadence.mean_interval_s < 70) ++checks_passed;
                if (std::abs(period - 60.0) <= 0.5) ++checks_passed;
            }
        }
    }
    std::printf("\nHeadline cadence checks passed: %d/%d "
                "(interval and period: LG ~15 s; Samsung fingerprint ~60 s)\n",
                checks_passed, kHeadlineChecks);
    return checks_total == kHeadlineChecks && checks_passed == checks_total ? 0 : 1;
}
