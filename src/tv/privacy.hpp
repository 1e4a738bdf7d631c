// Privacy controls, modelled toggle-for-toggle on the paper's Table 1.
//
// The paper's opt-out phases flip *every* advertising/tracking option the TV
// exposes; ACR specifically hangs off the "viewing information" consent. ToS
// and privacy policy are always accepted (without them most TV functions are
// unusable — paper §3.2), so they are not represented as toggles here.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tvacr::tv {

enum class Brand { kSamsung, kLg };
enum class Country { kUk, kUs };

[[nodiscard]] std::string to_string(Brand brand);
[[nodiscard]] std::string to_string(Country country);
/// The command-line spellings: samsung|lg and uk|us; nullopt otherwise.
[[nodiscard]] std::optional<Brand> parse_brand(std::string_view text);
[[nodiscard]] std::optional<Country> parse_country(std::string_view text);

/// One user-visible setting and its state. `enables_tracking` is the state
/// meaning "tracking allowed" — for most toggles that is `true`, but e.g.
/// LG's "Do not sell my personal information" tracks when *disabled*.
struct PrivacyToggle {
    std::string name;
    bool value = true;             // current switch position
    bool tracking_when = true;     // switch position that permits tracking
    bool gates_acr = false;        // the viewing-information master switch

    [[nodiscard]] bool permits_tracking() const noexcept { return value == tracking_when; }
};

class PrivacySettings {
  public:
    /// Factory-default (opted-in) settings for a brand, with the exact
    /// toggle names from Table 1.
    [[nodiscard]] static PrivacySettings defaults(Brand brand);

    /// The paper's opt-out procedure: flip every toggle to its
    /// non-tracking position.
    void opt_out_all();
    /// Restore every toggle to its tracking position (the setup default).
    void opt_in_all();

    /// Flips a single named toggle; false if no such toggle exists.
    bool set(const std::string& name, bool value);

    /// ACR gate: the "viewing information" consent specifically.
    [[nodiscard]] bool viewing_information_allowed() const;
    /// Whether the named toggle currently permits its service (false when
    /// no such toggle exists).
    [[nodiscard]] bool toggle_permits(const std::string& name) const;
    /// Whether any advertising/tracking toggle still permits tracking.
    [[nodiscard]] bool any_tracking_allowed() const;

    [[nodiscard]] const std::vector<PrivacyToggle>& toggles() const noexcept { return toggles_; }

  private:
    std::vector<PrivacyToggle> toggles_;
};

}  // namespace tvacr::tv
