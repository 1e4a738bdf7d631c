// Privacy-control audit: which of the TV's many advertising/tracking
// toggles actually govern ACR?
//
// The paper notes that opting out requires navigating "various settings in
// multiple subsections, with no universal off switch" (Table 1 lists 11 LG
// toggles and 6 Samsung toggles). This example flips each toggle
// individually and measures ACR traffic, showing that exactly one switch —
// the viewing-information consent — controls fingerprint uploads.
#include <cstdio>
#include <iostream>

#include "core/experiment.hpp"

using namespace tvacr;

namespace {

double acr_kb_with_single_optout(tv::Brand brand, const std::string& toggle_name, bool flip_to) {
    core::ExperimentSpec spec;
    spec.brand = brand;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.phase = tv::Phase::kLInOIn;
    spec.duration = SimTime::minutes(10);
    spec.seed = 11;

    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    bed.analyze_at_tap();
    if (!toggle_name.empty()) {
        const bool found = bed.tv().set_privacy_toggle(toggle_name, flip_to);
        if (!found) std::printf("  (toggle not found: %s)\n", toggle_name.c_str());
    }
    // Run the capture workflow manually (the spec's phase would reset
    // privacy, so power-cycle here with the toggle already flipped).
    bed.tv().set_scenario(spec.scenario);
    bed.plug().schedule_cycle(SimTime::seconds(1), SimTime::seconds(1) + spec.duration);
    bed.simulator().run_until(SimTime::seconds(10) + spec.duration);

    const auto analyzer = bed.finish_analysis();
    double kb = 0.0;
    for (const auto& domain : bed.tv().acr().domain_names()) {
        kb += analyzer.kilobytes_for(domain);
    }
    return kb;
}

void audit_brand(tv::Brand brand) {
    std::printf("=== %s: ACR KB while watching linear TV (10 min), one toggle flipped ===\n",
                to_string(brand).c_str());
    const double baseline = acr_kb_with_single_optout(brand, "", false);
    std::printf("  %-58s %8.1f KB\n", "(baseline: factory settings, everything opted in)",
                baseline);

    const auto defaults = tv::PrivacySettings::defaults(brand);
    for (const auto& toggle : defaults.toggles()) {
        const double kb =
            acr_kb_with_single_optout(brand, toggle.name, !toggle.tracking_when);
        const bool stops_acr = kb < baseline * 0.05;
        std::printf("  %-58s %8.1f KB %s\n", toggle.name.c_str(), kb,
                    stops_acr ? "<-- stops ACR" : "");
    }
    std::printf("\n");
}

}  // namespace

int main() {
    std::cout << "Single-toggle privacy audit (paper §2: \"no universal off switch\")\n\n";
    audit_brand(tv::Brand::kLg);
    audit_brand(tv::Brand::kSamsung);
    std::cout << "Only the viewing-information consent stops fingerprinting; every other\n"
                 "advertising toggle leaves the ACR channel untouched.\n";
    return 0;
}
