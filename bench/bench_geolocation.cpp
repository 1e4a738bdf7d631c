// Reproduces the paper's §4.1/§4.3 geolocation analysis: map every observed
// ACR endpoint to a server city via two GeoIP databases, resolving
// disagreements with traceroute + RIPE-IPmap-style engines, and flag the
// cross-jurisdiction placements (the UK TV whose log-config endpoint sits in
// New York). Exits 1 when a TV locates no endpoint or a located endpoint
// contradicts the expectation the banner prints.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/audit.hpp"
#include "core/experiment.hpp"

using namespace tvacr;

namespace {

/// The paper's placement of each ACR endpoint (§4.1, §4.3): LG UK in
/// Amsterdam; Samsung UK in London or Amsterdam, except log-config in New
/// York; every US endpoint in the US.
bool as_expected(tv::Brand brand, tv::Country country, const std::string& domain,
                 const geo::City* city) {
    if (city == nullptr) return false;
    if (country == tv::Country::kUs) return city->country_code == "US";
    if (brand == tv::Brand::kLg) return city->name == "Amsterdam";
    if (domain.find("log-config") != std::string::npos) return city->name == "New York";
    return city->name == "London" || city->name == "Amsterdam";
}

/// Locates one TV's ACR endpoints; returns how many contradict the
/// expectation, or 1 when none was located.
int geolocate_for(tv::Brand brand, tv::Country country) {
    core::ExperimentSpec spec;
    spec.brand = brand;
    spec.country = country;
    spec.scenario = tv::Scenario::kLinear;
    spec.duration = SimTime::minutes(5);  // domains appear within minutes
    spec.seed = 2024;

    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    (void)core::ExperimentRunner::run_on(bed, spec);

    const auto& truth = bed.ground_truth();
    const auto maxmind = geo::derive_database("maxmind-like", truth, 0.25, 0xA1);
    const auto ip2location = geo::derive_database("ip2location-like", truth, 0.25, 0xB2);
    std::vector<const geo::City*> probes;
    for (const char* name : {"London", "Amsterdam", "Frankfurt", "Dublin", "New York", "Ashburn",
                             "Chicago", "Dallas", "San Jose", "Seattle", "Tokyo", "Sydney"}) {
        probes.push_back(geo::find_city(name));
    }
    const geo::RipeIpMap ipmap(truth, probes, 0xC3);
    const geo::Traceroute traceroute(truth, 0xD4);
    const geo::Geolocator locator(maxmind, ip2location, ipmap, traceroute, bed.vantage());

    std::printf("%s TV in %s (vantage %s):\n", to_string(brand).c_str(),
                to_string(country).c_str(), bed.vantage().name.c_str());
    int located = 0;
    int unexpected = 0;
    for (const auto& domain : bed.tv().acr().domain_names()) {
        const auto address = bed.address_of(domain);
        if (!address) continue;
        const auto result = locator.locate(*address);
        const auto* true_city = truth.city_of(*address);
        ++located;
        const bool expected = as_expected(brand, country, domain, result.final_city);
        if (!expected) ++unexpected;
        const bool cross_border =
            result.final_city != nullptr &&
            result.final_city->country_code != (country == tv::Country::kUk ? "GB" : "US") &&
            !(country == tv::Country::kUk && result.final_city->country_code == "NL");
        std::printf("  %-36s %-15s mm=%-10s ip2l=%-10s -> %-10s via %-22s truth=%-10s%s%s\n",
                    domain.c_str(), address->to_string().c_str(),
                    result.maxmind ? result.maxmind->name.c_str() : "?",
                    result.ip2location ? result.ip2location->name.c_str() : "?",
                    result.final_city ? result.final_city->name.c_str() : "?",
                    result.method.c_str(), true_city ? true_city->name.c_str() : "?",
                    cross_border ? "  [cross-jurisdiction]" : "",
                    expected ? "" : "  [UNEXPECTED]");
        if (!result.traceroute.empty()) {
            std::printf("    traceroute:");
            for (const auto& hop : result.traceroute) {
                std::printf(" %d:%s(%.1fms)", hop.ttl,
                            hop.ptr_name.empty() ? hop.address.to_string().c_str()
                                                 : hop.ptr_name.c_str(),
                            hop.rtt_ms);
            }
            std::printf("\n");
        }
    }
    std::printf("\n");
    return located == 0 ? 1 : unexpected;
}

}  // namespace

int main() {
    std::cout << "Geolocation of ACR endpoints (paper §4.1 / §4.3)\n"
              << "Expected: LG UK -> Amsterdam; Samsung UK -> London/Amsterdam except\n"
              << "log-config -> New York (cross-jurisdiction); all US endpoints -> US.\n\n";
    int failures = 0;
    failures += geolocate_for(tv::Brand::kLg, tv::Country::kUk);
    failures += geolocate_for(tv::Brand::kSamsung, tv::Country::kUk);
    failures += geolocate_for(tv::Brand::kLg, tv::Country::kUs);
    failures += geolocate_for(tv::Brand::kSamsung, tv::Country::kUs);
    std::printf("Endpoints placed against the expectation: %s\n",
                failures == 0 ? "all as expected" : "MISMATCH");
    return failures == 0 ? 0 : 1;
}
