#include "tv/smart_tv.hpp"

namespace tvacr::tv {

SmartTv::SmartTv(sim::Simulator& simulator, sim::AccessPoint& access_point, sim::Cloud& cloud,
                 AcrBackend& backend, const fp::ContentLibrary& library, Config config)
    : simulator_(simulator),
      cloud_(cloud),
      backend_(backend),
      library_(library),
      config_(config),
      station_(simulator, to_string(config.brand) + "-tv", config.mac, config.ip),
      resolver_(simulator, station_, cloud.dns_ip(), derive_seed(config.seed, 0xD45), config.dns),
      privacy_(PrivacySettings::defaults(config.brand)),
      logged_in_(config.logged_in) {
    station_.attach(access_point);
    station_.set_online(false);  // powered off until the plug energizes us

    device_id_ = derive_seed(config.seed, 0xDE71CE);
    advertising_id_ = derive_seed(config.seed, 0xAD1D);

    AcrClient::Wiring wiring{simulator_, station_, cloud_, resolver_, backend_};
    acr_ = std::make_unique<AcrClient>(wiring, config.brand, config.country, device_id_,
                                       config.seed, config.domain_rotation);
    BackgroundServices::Wiring bg{simulator_, station_, cloud_, resolver_};
    const auto profile = platform_profile(config.brand, config.country);
    background_ = std::make_unique<BackgroundServices>(bg, profile, config.seed);
    if (!profile.voice_domain.empty()) {
        VoiceAssistant::Wiring voice_wiring{simulator_, station_, cloud_, resolver_};
        voice_ = std::make_unique<VoiceAssistant>(voice_wiring, profile.voice_domain,
                                                  config.seed);
    }

    // Content sources. Channels are built from the shared library catalog so
    // the backend recognizes them; HDMI and cast feeds use private seeds the
    // library has never indexed (a laptop desktop is not in any ACR catalog).
    std::vector<fp::ContentInfo> catalog;
    for (const auto& [id, entry] : library.entries()) catalog.push_back(entry.info);
    std::sort(catalog.begin(), catalog.end(),
              [](const fp::ContentInfo& a, const fp::ContentInfo& b) { return a.id < b.id; });
    for (int channel = 0; channel < 3; ++channel) {
        antenna_lineup_.push_back(make_broadcast_channel(
            catalog, SimTime::minutes(12),
            derive_seed(config.seed, 0xA27 + static_cast<std::uint64_t>(channel))));
    }
    fast_channel_ =
        make_broadcast_channel(catalog, SimTime::minutes(5), derive_seed(config.seed, 0xFA57));
    for (const auto& info : catalog) {
        if (info.kind == fp::ContentKind::kOttStream) {
            ott_content_ = info;
            break;
        }
    }
    // The paper's HDMI scenario connected "a separate laptop (browsing and
    // watching YouTube videos) or gaming console (playing popular games)";
    // our Samsung bench got the laptop, the LG bench the console.
    const auto hdmi_kind = config.brand == Brand::kLg ? fp::ContentKind::kHdmiConsole
                                                      : fp::ContentKind::kHdmiDesktop;
    hdmi_stream_ = std::make_unique<fp::ContentStream>(
        derive_seed(config.seed, 0x4D41), fp::ContentDynamics::for_kind(hdmi_kind));
    cast_stream_ = std::make_unique<fp::ContentStream>(
        derive_seed(config.seed, 0xCA57), fp::ContentDynamics::for_kind(fp::ContentKind::kScreenCast));
    home_stream_ = std::make_unique<fp::ContentStream>(
        derive_seed(config.seed, 0x40ED), fp::ContentDynamics::for_kind(fp::ContentKind::kHomeScreen));
}

SmartTv::~SmartTv() { power_off(); }

void SmartTv::power_on() {
    if (powered_) return;
    powered_ = true;
    station_.set_online(true);

    // Boot DNS burst: the platform resolves its service domains within the
    // first seconds after power-on (paper §3.2 leans on this to map IPs to
    // names). ACR domains are only resolved when viewing information is
    // consented to — after opt-out the TV has no reason to look them up.
    const auto boot_profile = platform_profile(config_.brand, config_.country);
    std::vector<std::string> names = boot_profile.other_domains;
    if (scenario_ == Scenario::kOtt) names.emplace_back(kOttCdnDomain);
    if (!boot_profile.voice_domain.empty() &&
        privacy_.toggle_permits("Voice information agreement")) {
        names.push_back(boot_profile.voice_domain);
    }
    if (privacy_.viewing_information_allowed()) {
        const auto acr_names = acr_->domain_names();
        names.insert(names.end(), acr_names.begin(), acr_names.end());
    }
    SimTime stagger = SimTime::millis(120);
    for (const auto& name : names) {
        simulator_.after(stagger, [this, name]() {
            if (powered_) resolver_.resolve(name, [](auto) {});
        });
        stagger += SimTime::millis(85);
    }

    // Services come up shortly after the burst.
    simulator_.after(SimTime::seconds(2), [this]() {
        if (!powered_) return;
        background_->start(scenario_);
        refresh_acr();
        refresh_voice();
    });
}

void SmartTv::power_off() {
    if (!powered_) return;
    powered_ = false;
    acr_->stop();
    background_->stop();
    if (voice_) voice_->stop();
    station_.set_online(false);
}

void SmartTv::set_scenario(Scenario scenario) {
    if (scenario_ == scenario) return;
    scenario_ = scenario;
    if (powered_) {
        // Input/app switches restart the relevant services, like the real
        // platforms do when the source changes.
        background_->stop();
        background_->start(scenario_);
        acr_->stop();
        refresh_acr();
    }
}

void SmartTv::next_channel() {
    channel_index_ = (channel_index_ + 1) % static_cast<int>(antenna_lineup_.size());
}

void SmartTv::login() { logged_in_ = true; }
void SmartTv::logout() { logged_in_ = false; }

void SmartTv::opt_out_all() {
    privacy_.opt_out_all();
    if (powered_) {
        acr_->stop();
        refresh_acr();
        refresh_voice();
    }
}

void SmartTv::opt_in_all() {
    privacy_.opt_in_all();
    if (powered_) {
        refresh_acr();
        refresh_voice();
    }
}

bool SmartTv::set_privacy_toggle(const std::string& name, bool value) {
    const bool found = privacy_.set(name, value);
    if (found && powered_) {
        acr_->stop();
        refresh_acr();
        refresh_voice();
    }
    return found;
}

void SmartTv::refresh_acr() {
    if (!powered_ || !privacy_.viewing_information_allowed()) return;
    if (acr_->running()) return;
    const AcrMode mode = acr_mode_for(config_.brand, config_.country, scenario_);
    acr_->start([this](SimTime t, bool with_audio) { return capture_at(t, with_audio); }, mode);
}

void SmartTv::refresh_voice() {
    if (!voice_) return;
    const bool permitted =
        powered_ && privacy_.toggle_permits("Voice information agreement");
    if (permitted && !voice_->running()) {
        voice_->start();
    } else if (!permitted && voice_->running()) {
        voice_->stop();
    }
}

const fp::ContentStream& SmartTv::stream_for(const fp::ContentInfo& info) const {
    auto& slot = stream_cache_[info.id];
    if (!slot) slot = std::make_unique<fp::ContentStream>(info.seed, info.dynamics);
    return *slot;
}

std::optional<SmartTv::OnScreen> SmartTv::on_screen(SimTime t) const {
    if (!powered_) return std::nullopt;
    switch (scenario_) {
        case Scenario::kIdle:
            return OnScreen{home_stream_.get(), t};
        case Scenario::kLinear: {
            const auto playing =
                antenna_lineup_[static_cast<std::size_t>(channel_index_)].at(t);
            if (playing.content == nullptr) return OnScreen{home_stream_.get(), t};
            return OnScreen{&stream_for(*playing.content), playing.offset};
        }
        case Scenario::kFast: {
            const auto playing = fast_channel_.at(t);
            if (playing.content == nullptr) return OnScreen{home_stream_.get(), t};
            return OnScreen{&stream_for(*playing.content), playing.offset};
        }
        case Scenario::kOtt:
            return OnScreen{&stream_for(ott_content_), t};
        case Scenario::kHdmi:
            return OnScreen{hdmi_stream_.get(), t};
        case Scenario::kScreenCast:
            return OnScreen{cast_stream_.get(), t};
    }
    return std::nullopt;
}

std::optional<ScreenSample> SmartTv::screen_at(SimTime t) const {
    const auto shown = on_screen(t);
    if (!shown) return std::nullopt;
    const fp::FrameFingerprint fingerprint = shown->stream->fingerprint_at(shown->offset);
    return ScreenSample{shown->stream->frame_at(shown->offset),
                        shown->stream->audio_at(shown->offset), fingerprint.video,
                        fingerprint.detail};
}

std::optional<ScreenCapture> SmartTv::capture_at(SimTime t, bool with_audio) const {
    const auto shown = on_screen(t);
    if (!shown) return std::nullopt;
    ScreenCapture capture;
    capture.fingerprint = shown->stream->fingerprint_at(shown->offset);
    if (with_audio) capture.audio = shown->stream->audio_at(shown->offset);
    return capture;
}

}  // namespace tvacr::tv
