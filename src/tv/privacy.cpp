#include "tv/privacy.hpp"

#include <algorithm>

namespace tvacr::tv {

std::string to_string(Brand brand) { return brand == Brand::kSamsung ? "Samsung" : "LG"; }
std::string to_string(Country country) { return country == Country::kUk ? "UK" : "US"; }

std::optional<Brand> parse_brand(std::string_view text) {
    if (text == "samsung") return Brand::kSamsung;
    if (text == "lg") return Brand::kLg;
    return std::nullopt;
}

std::optional<Country> parse_country(std::string_view text) {
    if (text == "uk") return Country::kUk;
    if (text == "us") return Country::kUs;
    return std::nullopt;
}

PrivacySettings PrivacySettings::defaults(Brand brand) {
    PrivacySettings settings;
    const auto add = [&](std::string name, bool tracking_when, bool gates_acr = false) {
        // Factory state is the tracking position (opt-in is the default when
        // setting up the TV — paper §4.1).
        settings.toggles_.push_back(PrivacyToggle{std::move(name), tracking_when, tracking_when,
                                                  gates_acr});
    };
    if (brand == Brand::kLg) {
        // Table 1, LG column. "Enable Limit ad tracking" and "Enable Do not
        // sell" are opt-out actions, so tracking is permitted while false.
        add("Limit ad tracking", false);
        add("TV membership agreement for marketing comms.", true);
        add("Do not sell my personal information", false);
        add("Viewing information agreement", true, /*gates_acr=*/true);
        add("Voice information agreement", true);
        add("Interest-based & Cross-device advertising agreement", true);
        add("Who.Where.What?", true);
        add("Home promotion", true);
        add("Content recommendation", true);
        add("Live plus", true);
        add("AI recommendation (Who.Where.What, Smart Tips)", true);
    } else {
        // Table 1, Samsung column.
        add("I consent to viewing information services on this device", true,
            /*gates_acr=*/true);
        add("I consent to interest-Based advertisements", true);
        add("Customization Service", true);
        add("Do not track", false);
        add("Improve personalized ads", true);
        add("Get news and special offer", true);
    }
    return settings;
}

void PrivacySettings::opt_out_all() {
    for (auto& toggle : toggles_) toggle.value = !toggle.tracking_when;
}

void PrivacySettings::opt_in_all() {
    for (auto& toggle : toggles_) toggle.value = toggle.tracking_when;
}

bool PrivacySettings::set(const std::string& name, bool value) {
    const auto it = std::find_if(toggles_.begin(), toggles_.end(),
                                 [&](const PrivacyToggle& t) { return t.name == name; });
    if (it == toggles_.end()) return false;
    it->value = value;
    return true;
}

bool PrivacySettings::viewing_information_allowed() const {
    for (const auto& toggle : toggles_) {
        if (toggle.gates_acr) return toggle.permits_tracking();
    }
    return false;
}

bool PrivacySettings::toggle_permits(const std::string& name) const {
    for (const auto& toggle : toggles_) {
        if (toggle.name == name) return toggle.permits_tracking();
    }
    return false;
}

bool PrivacySettings::any_tracking_allowed() const {
    return std::any_of(toggles_.begin(), toggles_.end(),
                       [](const PrivacyToggle& t) { return t.permits_tracking(); });
}

}  // namespace tvacr::tv
