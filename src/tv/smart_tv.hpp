// The smart TV device model: a powered station running a platform stack.
//
// Power-on runs the boot sequence (DNS burst, service start); the
// trigger-script API switches scenarios (input source / app), login state
// and privacy settings, and the validation-script API exposes the state the
// paper's automation verified before each run. The screen model renders the
// scenario's content source, which the ACR client samples.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "sim/access_point.hpp"
#include "sim/smart_plug.hpp"
#include "tv/acr_client.hpp"
#include "tv/background.hpp"
#include "tv/channel.hpp"
#include "tv/privacy.hpp"
#include "tv/scenario.hpp"
#include "tv/voice.hpp"

namespace tvacr::tv {

/// The full panel output at one instant: the rendered frame and audio
/// window, plus the frame's dhash (`video`) and frame_detail (`detail`).
struct ScreenSample {
    fp::Frame frame;
    fp::AudioWindow audio;
    fp::VideoHash video = 0;
    std::uint16_t detail = 0;
};

class SmartTv : public sim::PoweredDevice {
  public:
    struct Config {
        Brand brand = Brand::kSamsung;
        Country country = Country::kUk;
        std::uint64_t seed = 1;
        net::MacAddress mac = net::MacAddress::local(0x7001);
        net::Ipv4Address ip = net::Ipv4Address(192, 168, 4, 23);
        bool logged_in = true;
        /// The rotating-domain number in effect for this boot (eu-acrX).
        int domain_rotation = 7;
        /// Stub-resolver policy (timeouts, retries, fallback resolvers).
        sim::DnsClientConfig dns;
    };

    SmartTv(sim::Simulator& simulator, sim::AccessPoint& access_point, sim::Cloud& cloud,
            AcrBackend& backend, const fp::ContentLibrary& library, Config config);
    ~SmartTv() override;

    SmartTv(const SmartTv&) = delete;
    SmartTv& operator=(const SmartTv&) = delete;

    // -- PoweredDevice (driven by the smart plug) ----------------------------
    void power_on() override;
    void power_off() override;
    [[nodiscard]] bool is_on() const noexcept { return powered_; }

    // -- Trigger-script API ---------------------------------------------------
    void set_scenario(Scenario scenario);
    /// Tunes the antenna to the next channel in the lineup (Linear only;
    /// harmless otherwise). The ACR pipeline keeps fingerprinting across the
    /// change, as a real TV does when the viewer zaps.
    void next_channel();
    [[nodiscard]] int current_channel() const noexcept { return channel_index_; }
    void login();
    void logout();
    void opt_out_all();
    void opt_in_all();
    /// Flip a single named privacy toggle (Table 1 names).
    bool set_privacy_toggle(const std::string& name, bool value);

    // -- Validation-script API ------------------------------------------------
    [[nodiscard]] Scenario scenario() const noexcept { return scenario_; }
    [[nodiscard]] bool logged_in() const noexcept { return logged_in_; }
    [[nodiscard]] const PrivacySettings& privacy() const noexcept { return privacy_; }
    [[nodiscard]] const AcrClient& acr() const noexcept { return *acr_; }
    [[nodiscard]] const BackgroundServices& background() const noexcept { return *background_; }
    /// Voice assistant (LG only; nullptr for brands without a voice toggle).
    [[nodiscard]] const VoiceAssistant* voice() const noexcept { return voice_.get(); }
    [[nodiscard]] sim::Station& station() noexcept { return station_; }
    [[nodiscard]] Brand brand() const noexcept { return config_.brand; }
    [[nodiscard]] Country country() const noexcept { return config_.country; }
    [[nodiscard]] std::uint64_t device_id() const noexcept { return device_id_; }
    [[nodiscard]] std::uint64_t advertising_id() const noexcept { return advertising_id_; }

    /// Current panel content, frame included; nullopt while powered off.
    [[nodiscard]] std::optional<ScreenSample> screen_at(SimTime t) const;
    /// What the ACR client reads per capture: the same fingerprints as
    /// screen_at, and its audio window only when `with_audio`.
    [[nodiscard]] std::optional<ScreenCapture> capture_at(SimTime t, bool with_audio) const;

  private:
    /// The stream on screen at `t` and the offset into it.
    struct OnScreen {
        const fp::ContentStream* stream;
        SimTime offset;
    };
    [[nodiscard]] std::optional<OnScreen> on_screen(SimTime t) const;

    void refresh_acr();
    void refresh_voice();
    [[nodiscard]] const fp::ContentStream& stream_for(const fp::ContentInfo& info) const;

    sim::Simulator& simulator_;
    sim::Cloud& cloud_;
    AcrBackend& backend_;
    const fp::ContentLibrary& library_;
    Config config_;
    sim::Station station_;
    sim::DnsClient resolver_;
    PrivacySettings privacy_;
    std::unique_ptr<AcrClient> acr_;
    std::unique_ptr<BackgroundServices> background_;
    std::unique_ptr<VoiceAssistant> voice_;

    bool powered_ = false;
    bool logged_in_ = true;
    Scenario scenario_ = Scenario::kIdle;
    std::uint64_t device_id_ = 0;
    std::uint64_t advertising_id_ = 0;

    // Content sources per scenario. The antenna lineup has several channels
    // the viewer can zap between; FAST is a single stream.
    std::vector<ChannelSchedule> antenna_lineup_;
    int channel_index_ = 0;
    ChannelSchedule fast_channel_;
    fp::ContentInfo ott_content_;
    std::unique_ptr<fp::ContentStream> hdmi_stream_;
    std::unique_ptr<fp::ContentStream> cast_stream_;
    std::unique_ptr<fp::ContentStream> home_stream_;
    mutable std::map<std::uint64_t, std::unique_ptr<fp::ContentStream>> stream_cache_;
};

}  // namespace tvacr::tv
