#include "tv/scenario.hpp"

namespace tvacr::tv {

std::string to_string(Scenario scenario) {
    switch (scenario) {
        case Scenario::kIdle: return "Idle";
        case Scenario::kLinear: return "Linear";
        case Scenario::kFast: return "FAST";
        case Scenario::kOtt: return "OTT";
        case Scenario::kHdmi: return "HDMI";
        case Scenario::kScreenCast: return "Screen Cast";
    }
    return "?";
}

std::string table_label(Scenario scenario) {
    // Tables 2-5 label the Linear column "Antenna".
    return scenario == Scenario::kLinear ? "Antenna" : to_string(scenario);
}

std::string to_string(Phase phase) {
    switch (phase) {
        case Phase::kLInOIn: return "LIn-OIn";
        case Phase::kLOutOIn: return "LOut-OIn";
        case Phase::kLInOOut: return "LIn-OOut";
        case Phase::kLOutOOut: return "LOut-OOut";
    }
    return "?";
}

std::optional<Scenario> parse_scenario(std::string_view text) {
    constexpr std::string_view kSpellings[] = {"idle", "linear", "fast", "ott", "hdmi", "cast"};
    for (std::size_t i = 0; i < kAllScenarios.size(); ++i) {
        if (text == kSpellings[i]) return kAllScenarios[i];
    }
    return std::nullopt;
}

std::optional<Phase> parse_phase(std::string_view text) {
    constexpr std::string_view kSpellings[] = {"lin-oin", "lout-oin", "lin-oout", "lout-oout"};
    for (std::size_t i = 0; i < kAllPhases.size(); ++i) {
        if (text == kSpellings[i]) return kAllPhases[i];
    }
    return std::nullopt;
}

}  // namespace tvacr::tv
