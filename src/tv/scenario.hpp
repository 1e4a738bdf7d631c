// The six experimental scenarios (paper §3.2) and the four privacy phases.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace tvacr::tv {

enum class Scenario { kIdle, kLinear, kFast, kOtt, kHdmi, kScreenCast };

inline constexpr std::array<Scenario, 6> kAllScenarios = {
    Scenario::kIdle, Scenario::kLinear, Scenario::kFast,
    Scenario::kOtt,  Scenario::kHdmi,   Scenario::kScreenCast,
};

/// Phase = login status x opt-in status (paper Figure 3).
enum class Phase { kLInOIn, kLOutOIn, kLInOOut, kLOutOOut };

inline constexpr std::array<Phase, 4> kAllPhases = {
    Phase::kLInOIn, Phase::kLOutOIn, Phase::kLInOOut, Phase::kLOutOOut,
};

[[nodiscard]] std::string to_string(Scenario scenario);
[[nodiscard]] std::string to_string(Phase phase);
/// The command-line spellings: idle|linear|fast|ott|hdmi|cast and
/// lin-oin|lout-oin|lin-oout|lout-oout; nullopt otherwise.
[[nodiscard]] std::optional<Scenario> parse_scenario(std::string_view text);
[[nodiscard]] std::optional<Phase> parse_phase(std::string_view text);
/// The column header the paper uses for the scenario ("Antenna" for Linear).
[[nodiscard]] std::string table_label(Scenario scenario);

[[nodiscard]] constexpr bool is_logged_in(Phase phase) {
    return phase == Phase::kLInOIn || phase == Phase::kLInOOut;
}
[[nodiscard]] constexpr bool is_opted_in(Phase phase) {
    return phase == Phase::kLInOIn || phase == Phase::kLOutOIn;
}

}  // namespace tvacr::tv
