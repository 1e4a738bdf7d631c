// Tests for the TV device layer: privacy settings (Table 1), platform
// domain sets, channel schedules, mode gating, the ACR backend protocol,
// and the SmartTv device model end-to-end on a small testbed.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "sim/access_point.hpp"
#include "sim/cloud.hpp"
#include "tv/acr_backend.hpp"
#include "tv/calibration.hpp"
#include "tv/channel.hpp"
#include "tv/platform.hpp"
#include "tv/privacy.hpp"
#include "tv/scenario.hpp"
#include "tv/smart_tv.hpp"

namespace tvacr::tv {
namespace {

// ----------------------------------------------------------------- privacy

TEST(PrivacySettingsTest, FactoryDefaultsPermitTracking) {
    for (const Brand brand : {Brand::kLg, Brand::kSamsung}) {
        const auto settings = PrivacySettings::defaults(brand);
        EXPECT_TRUE(settings.viewing_information_allowed()) << to_string(brand);
        EXPECT_TRUE(settings.any_tracking_allowed());
    }
}

TEST(PrivacySettingsTest, TableOneToggleCounts) {
    // Table 1 lists 11 LG toggles and 6 Samsung toggles.
    EXPECT_EQ(PrivacySettings::defaults(Brand::kLg).toggles().size(), 11U);
    EXPECT_EQ(PrivacySettings::defaults(Brand::kSamsung).toggles().size(), 6U);
}

TEST(PrivacySettingsTest, OptOutAllDisablesEverything) {
    for (const Brand brand : {Brand::kLg, Brand::kSamsung}) {
        auto settings = PrivacySettings::defaults(brand);
        settings.opt_out_all();
        EXPECT_FALSE(settings.viewing_information_allowed());
        EXPECT_FALSE(settings.any_tracking_allowed());
        settings.opt_in_all();
        EXPECT_TRUE(settings.viewing_information_allowed());
    }
}

TEST(PrivacySettingsTest, InvertedTogglesTrackWhenDisabled) {
    // LG's "Limit ad tracking" permits tracking while OFF.
    auto settings = PrivacySettings::defaults(Brand::kLg);
    ASSERT_TRUE(settings.set("Limit ad tracking", true));
    bool found = false;
    for (const auto& toggle : settings.toggles()) {
        if (toggle.name == "Limit ad tracking") {
            EXPECT_FALSE(toggle.permits_tracking());
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(PrivacySettingsTest, AcrGateIsViewingInformation) {
    auto samsung = PrivacySettings::defaults(Brand::kSamsung);
    ASSERT_TRUE(
        samsung.set("I consent to viewing information services on this device", false));
    EXPECT_FALSE(samsung.viewing_information_allowed());
    EXPECT_TRUE(samsung.any_tracking_allowed());  // other toggles still on

    auto lg = PrivacySettings::defaults(Brand::kLg);
    ASSERT_TRUE(lg.set("Viewing information agreement", false));
    EXPECT_FALSE(lg.viewing_information_allowed());
}

TEST(PrivacySettingsTest, UnknownToggleRejected) {
    auto settings = PrivacySettings::defaults(Brand::kSamsung);
    EXPECT_FALSE(settings.set("Nonexistent switch", false));
}

// ---------------------------------------------------------------- platform

TEST(PlatformTest, UkDomainSetsMatchPaper) {
    const auto lg = platform_profile(Brand::kLg, Country::kUk);
    ASSERT_EQ(lg.acr_domains.size(), 1U);
    EXPECT_EQ(lg.acr_domains[0].name, "eu-acrX.alphonso.tv");
    EXPECT_TRUE(lg.acr_domains[0].rotates);

    const auto samsung = platform_profile(Brand::kSamsung, Country::kUk);
    ASSERT_EQ(samsung.acr_domains.size(), 4U);  // paper §4.1: four UK domains
}

TEST(PlatformTest, UsSamsungOmitsKeepAliveDomain) {
    const auto samsung = platform_profile(Brand::kSamsung, Country::kUs);
    ASSERT_EQ(samsung.acr_domains.size(), 3U);  // paper §4.3: omits acr0
    for (const auto& domain : samsung.acr_domains) {
        EXPECT_EQ(domain.name.find("acr0"), std::string::npos);
        EXPECT_EQ(domain.name.find("-eu"), std::string::npos);
    }
}

TEST(PlatformTest, RotationSubstitutesNumber) {
    EXPECT_EQ(rotated_name("eu-acrX.alphonso.tv", 7), "eu-acr7.alphonso.tv");
    EXPECT_EQ(rotated_name("tkacrX.alphonso.tv", 0), "tkacr0.alphonso.tv");
    EXPECT_EQ(rotated_name("log-config.samsungacr.com", 3), "log-config.samsungacr.com");
}

TEST(PlatformTest, BootDomainsIncludeEverything) {
    const auto profile = platform_profile(Brand::kSamsung, Country::kUk);
    const auto boot = profile.boot_domains(2);
    EXPECT_EQ(boot.size(), profile.acr_domains.size() + profile.other_domains.size());
}

// ---------------------------------------------------------------- channels

TEST(ChannelScheduleTest, LoopsAndTracksOffsets) {
    const auto catalog = fp::builtin_catalog(99);
    const auto channel = make_broadcast_channel(catalog, SimTime::minutes(10), 1);
    ASSERT_GT(channel.slots().size(), 4U);
    ASSERT_GT(channel.cycle_length().as_micros(), 0);

    const auto first = channel.at(SimTime::seconds(30));
    ASSERT_NE(first.content, nullptr);
    EXPECT_EQ(first.offset, SimTime::seconds(30));

    // One full cycle later, the same content plays at the same offset.
    const auto wrapped = channel.at(SimTime::seconds(30) + channel.cycle_length());
    ASSERT_NE(wrapped.content, nullptr);
    EXPECT_EQ(wrapped.content->id, first.content->id);
    EXPECT_EQ(wrapped.offset, first.offset);
}

TEST(ChannelScheduleTest, ContainsAdBreaks) {
    const auto catalog = fp::builtin_catalog(99);
    const auto channel = make_broadcast_channel(catalog, SimTime::minutes(10), 1);
    int ads = 0;
    for (const auto& slot : channel.slots()) {
        if (slot.content.kind == fp::ContentKind::kAdvertisement) ++ads;
    }
    EXPECT_GE(ads, 4);  // two spots per break, four breaks
}

TEST(ChannelScheduleTest, EmptyScheduleIsSafe) {
    const ChannelSchedule empty;
    EXPECT_EQ(empty.at(SimTime::minutes(5)).content, nullptr);
}

// ------------------------------------------------------------- mode gating

struct ModeCase {
    Brand brand;
    Country country;
    Scenario scenario;
    AcrMode expected;
};

class AcrModeMatrix : public ::testing::TestWithParam<ModeCase> {};

TEST_P(AcrModeMatrix, MatchesPaperFindings) {
    const auto& param = GetParam();
    EXPECT_EQ(acr_mode_for(param.brand, param.country, param.scenario), param.expected)
        << to_string(param.brand) << "/" << to_string(param.country) << "/"
        << to_string(param.scenario);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, AcrModeMatrix,
    ::testing::Values(
        // Linear and HDMI fingerprint everywhere (§4.1).
        ModeCase{Brand::kLg, Country::kUk, Scenario::kLinear, AcrMode::kActive},
        ModeCase{Brand::kLg, Country::kUs, Scenario::kLinear, AcrMode::kActive},
        ModeCase{Brand::kSamsung, Country::kUk, Scenario::kLinear, AcrMode::kActive},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kLinear, AcrMode::kActive},
        ModeCase{Brand::kLg, Country::kUk, Scenario::kHdmi, AcrMode::kActive},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kHdmi, AcrMode::kActive},
        // FAST: suppressed in the UK, active in the US (§4.3).
        ModeCase{Brand::kLg, Country::kUk, Scenario::kFast, AcrMode::kSuppressed},
        ModeCase{Brand::kLg, Country::kUs, Scenario::kFast, AcrMode::kActive},
        ModeCase{Brand::kSamsung, Country::kUk, Scenario::kFast, AcrMode::kSuppressed},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kFast, AcrMode::kActive},
        // OTT never fingerprints (§4.1: Netflix/YouTube).
        ModeCase{Brand::kLg, Country::kUk, Scenario::kOtt, AcrMode::kSuppressed},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kOtt, AcrMode::kOff},
        // Samsung UK screen-cast probes; US stays closed (Tables 2 vs 4).
        ModeCase{Brand::kSamsung, Country::kUk, Scenario::kScreenCast, AcrMode::kProbe},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kScreenCast, AcrMode::kOff},
        ModeCase{Brand::kSamsung, Country::kUs, Scenario::kIdle, AcrMode::kOff},
        ModeCase{Brand::kLg, Country::kUs, Scenario::kIdle, AcrMode::kSuppressed}));

TEST(AcrScheduleTest, BrandCadencesMatchPaper) {
    const auto lg = acr_schedule(Brand::kLg);
    EXPECT_EQ(lg.capture_period, SimTime::millis(10));    // LG docs via §4.1
    EXPECT_EQ(lg.upload_period, SimTime::seconds(15));    // observed traffic
    EXPECT_EQ(lg.uploads_per_peak, 4);                    // peaks every minute
    EXPECT_FALSE(lg.has_audio);

    const auto samsung = acr_schedule(Brand::kSamsung);
    EXPECT_EQ(samsung.capture_period, SimTime::millis(500));  // Samsung guide
    EXPECT_EQ(samsung.upload_period, SimTime::seconds(60));
    EXPECT_EQ(samsung.uploads_per_peak, 5);  // ~five-minute peaks
    EXPECT_TRUE(samsung.has_audio);
}

// ------------------------------------------------------------- ACR backend

TEST(AcrWireTest, RequestRoundTrip) {
    AcrRequest request;
    request.type = AcrMessageType::kTelemetry;
    request.body = Bytes(100, 0x77);
    const auto decoded = AcrRequest::deserialize(request.serialize());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, AcrMessageType::kTelemetry);
    EXPECT_EQ(decoded.value().body, request.body);
}

TEST(AcrWireTest, ResponseRoundTrip) {
    AcrResponse response;
    response.recognized = true;
    response.content_id = 1005;
    response.content_offset_s = 300;
    response.padding_size = 64;
    const auto decoded = AcrResponse::deserialize(response.serialize());
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().recognized);
    EXPECT_EQ(decoded.value().content_id, response.content_id);
    EXPECT_EQ(decoded.value().content_offset_s, response.content_offset_s);
    EXPECT_EQ(decoded.value().padding_size, response.padding_size);
    EXPECT_EQ(response.serialize().size(), 17U + 64U);
}

TEST(AcrWireTest, RejectsGarbage) {
    EXPECT_FALSE(AcrRequest::deserialize(Bytes{0x99, 0, 0, 0, 0}).ok());
    EXPECT_FALSE(AcrRequest::deserialize(Bytes{}).ok());
    EXPECT_FALSE(AcrResponse::deserialize(Bytes{1, 2}).ok());
}

struct BackendFixture : ::testing::Test {
    fp::ContentLibrary library;
    void SetUp() override {
        for (const auto& info : fp::builtin_catalog(555)) library.add(info);
    }
};

TEST_F(BackendFixture, RecognizesBatchAndProfiles) {
    AcrBackend backend(Brand::kSamsung, Country::kUk, library);
    const auto& info = library.entries().begin()->second.info;
    const fp::ContentStream stream(info.seed, info.dynamics);

    fp::FingerprintBatch batch;
    batch.device_id = 77;
    batch.capture_period_ms = 500;
    for (int i = 0; i < 40; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 500);
        record.video = fp::dhash(stream.frame_at(SimTime::minutes(2) + SimTime::millis(i * 500)));
        batch.records.push_back(record);
    }
    AcrRequest request;
    request.type = AcrMessageType::kFingerprintBatch;
    request.body = batch.serialize(fp::BatchEncoding::kDeltaRle);

    const Bytes wire = backend.handle(request.serialize());
    const auto response = AcrResponse::deserialize(wire);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().recognized);
    EXPECT_EQ(response.value().content_id, info.id);
    EXPECT_EQ(backend.batches_received(), 1U);
    EXPECT_EQ(backend.batches_matched(), 1U);
    EXPECT_NE(backend.profiler().profile(77), nullptr);
}

TEST_F(BackendFixture, UnknownContentIsNotRecognized) {
    AcrBackend backend(Brand::kLg, Country::kUk, library);
    fp::ContentInfo unknown;
    unknown.seed = 123456789;
    unknown.dynamics = fp::ContentDynamics::for_kind(fp::ContentKind::kHdmiDesktop);
    const fp::ContentStream stream(unknown.seed, unknown.dynamics);

    fp::FingerprintBatch batch;
    batch.device_id = 78;
    batch.capture_period_ms = 10;
    for (int i = 0; i < 100; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 10);
        record.video = fp::dhash(stream.frame_at(SimTime::millis(i * 10)));
        batch.records.push_back(record);
    }
    AcrRequest request;
    request.type = AcrMessageType::kFingerprintBatch;
    request.body = batch.serialize(fp::BatchEncoding::kCompactRle);

    const auto response = AcrResponse::deserialize(backend.handle(request.serialize()));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().recognized);
    EXPECT_EQ(backend.batches_matched(), 0U);
    EXPECT_EQ(backend.profiler().profile(78), nullptr);
}

TEST_F(BackendFixture, ResponseSizesFollowCalibration) {
    AcrBackend backend(Brand::kSamsung, Country::kUk, library);
    const auto calibration = acr_calibration(Brand::kSamsung, Country::kUk);

    AcrRequest heartbeat;
    heartbeat.type = AcrMessageType::kHeartbeat;
    heartbeat.body = Bytes(10, 0);
    EXPECT_EQ(backend.handle(heartbeat.serialize()).size(),
              17U + calibration.heartbeat_response);

    AcrRequest config;
    config.type = AcrMessageType::kConfigFetch;
    config.body = Bytes(10, 0);
    EXPECT_EQ(backend.handle(config.serialize()).size(), 17U + calibration.config_response);
    EXPECT_EQ(backend.heartbeats(), 1U);
}

TEST_F(BackendFixture, FirstBatchAfterControlTrafficAnswersLikeAnUpFrontIndex) {
    // The backend indexes its library only when the first fingerprint
    // batch arrives. Control traffic before it gets the calibrated sizes,
    // and the batch gets the bytes of a MatchServer built up front over
    // its own copy of the catalog.
    fp::ContentLibrary up_front_library;
    for (const auto& info : fp::builtin_catalog(555)) up_front_library.add(info);
    const fp::MatchServer up_front(up_front_library);
    AcrBackend backend(Brand::kLg, Country::kUk, library);
    const auto calibration = acr_calibration(Brand::kLg, Country::kUk);

    const std::pair<AcrMessageType, std::size_t> control[] = {
        {AcrMessageType::kHeartbeat, calibration.heartbeat_response},
        {AcrMessageType::kProbe, calibration.probe_response},
        {AcrMessageType::kKeepAlive, calibration.keepalive_response},
        {AcrMessageType::kConfigFetch, calibration.config_response},
    };
    for (const auto& [type, size] : control) {
        AcrRequest request;
        request.type = type;
        request.body = Bytes(10, 0);
        const auto response = AcrResponse::deserialize(backend.handle(request.serialize()));
        ASSERT_TRUE(response.ok());
        EXPECT_FALSE(response.value().recognized);
        EXPECT_EQ(response.value().padding_size, size) << static_cast<int>(type);
    }
    EXPECT_EQ(backend.heartbeats(), 1U);
    EXPECT_EQ(backend.batches_received(), 0U);

    const fp::ContentInfo info = fp::builtin_catalog(555)[2];
    const fp::ContentStream stream(info.seed, info.dynamics);
    fp::FingerprintBatch batch;
    batch.device_id = 79;
    batch.capture_period_ms = 10;
    for (int i = 0; i < 1500; ++i) {
        fp::CaptureRecord record;
        record.offset_ms = static_cast<std::uint32_t>(i * 10);
        record.video = stream.video_at(SimTime::minutes(7) + SimTime::millis(i * 10));
        batch.records.push_back(record);
    }
    const auto match = up_front.match(batch);
    ASSERT_TRUE(match.has_value());
    AcrResponse want;
    want.recognized = true;
    want.content_id = match->content_id;
    want.content_offset_s =
        static_cast<std::uint32_t>(match->content_offset.as_micros() / 1'000'000);
    want.padding_size = static_cast<std::uint32_t>(calibration.response_recognized - 17);
    EXPECT_EQ(want.content_id, info.id);

    AcrRequest request;
    request.type = AcrMessageType::kFingerprintBatch;
    request.body = batch.serialize(fp::BatchEncoding::kCompactRle);
    EXPECT_EQ(backend.handle(request.serialize()), want.serialize());
    EXPECT_EQ(backend.batches_matched(), 1U);
}

TEST_F(BackendFixture, MalformedRequestGetsTerseError) {
    AcrBackend backend(Brand::kLg, Country::kUk, library);
    const Bytes junk = {0xFF, 0xFF, 0xFF};
    const Bytes response = backend.handle(junk);
    EXPECT_EQ(response.size(), 17U + 32U);
    EXPECT_EQ(backend.batches_received(), 0U);
}

// ------------------------------------------------------------ SmartTv model

struct TvFixture : ::testing::Test {
    sim::Simulator simulator;
    sim::Cloud cloud{simulator, 11};
    sim::AccessPoint ap{simulator, net::MacAddress::local(0xA1), net::Ipv4Address(192, 168, 4, 1),
                        sim::LatencyModel{SimTime::millis(2), SimTime::micros(200)}, 12};
    fp::ContentLibrary library;
    std::unique_ptr<AcrBackend> backend;
    std::unique_ptr<SmartTv> tv;
    std::vector<net::Packet> capture;

    void SetUp() override { build(Brand::kSamsung, Country::kUk); }

    void build(Brand brand, Country country) {
        capture.clear();
        ap.set_cloud(cloud);
        ap.set_tap([this](const net::Packet& packet) { capture.push_back(packet); });
        cloud.enable_dns(net::Ipv4Address(9, 9, 9, 9));
        for (const auto& info : fp::builtin_catalog(31)) library.add(info);
        backend = std::make_unique<AcrBackend>(brand, country, library);

        // Register every platform domain in the zone so boot resolution works.
        const auto profile = platform_profile(brand, country);
        std::uint8_t octet = 1;
        for (const auto& name : profile.boot_domains(7)) {
            cloud.zone().add_a(name, net::Ipv4Address(23, 1, octet++, 10));
        }
        cloud.zone().add_a(kOttCdnDomain, net::Ipv4Address(23, 1, 200, 10));

        SmartTv::Config config;
        config.brand = brand;
        config.country = country;
        config.seed = 5;
        tv = std::make_unique<SmartTv>(simulator, ap, cloud, *backend, library, config);
    }
};

TEST_F(TvFixture, PowerOnTriggersDnsBurst) {
    tv->power_on();
    simulator.run_until(SimTime::seconds(10));
    EXPECT_TRUE(tv->is_on());
    // The burst resolves ACR + platform domains within seconds.
    int dns_queries = 0;
    for (const auto& raw : capture) {
        const auto parsed = net::parse_packet(raw);
        if (parsed.ok() && parsed.value().udp &&
            parsed.value().udp->destination_port == dns::kDnsPort) {
            ++dns_queries;
        }
    }
    const auto expected = platform_profile(Brand::kSamsung, Country::kUk);
    EXPECT_GE(dns_queries,
              static_cast<int>(expected.acr_domains.size() + expected.other_domains.size()));
}

TEST_F(TvFixture, OptedOutTvResolvesNoAcrDomains) {
    tv->opt_out_all();
    tv->power_on();
    simulator.run_until(SimTime::seconds(30));
    // Check the raw DNS payloads: no query for an "acr" name may appear.
    bool saw_acr_query = false;
    for (const auto& raw : capture) {
        const auto parsed = net::parse_packet(raw);
        if (!parsed.ok() || !parsed.value().udp) continue;
        const auto message = dns::DnsMessage::decode(parsed.value().payload);
        if (!message.ok() || message.value().questions.empty()) continue;
        const auto name = message.value().questions.front().name.to_string();
        if (name.find("acr") != std::string::npos) saw_acr_query = true;
    }
    EXPECT_FALSE(saw_acr_query);
    EXPECT_FALSE(tv->acr().running());
}

TEST_F(TvFixture, PowerOffSilencesStation) {
    tv->power_on();
    simulator.run_until(SimTime::seconds(20));
    tv->power_off();
    const std::size_t frames_at_off = capture.size();
    simulator.run_until(SimTime::minutes(3));
    // Nothing new after power-off (in-flight events are dropped offline).
    EXPECT_EQ(capture.size(), frames_at_off);
    EXPECT_FALSE(tv->is_on());
}

TEST_F(TvFixture, ScreenFollowsScenario) {
    tv->power_on();
    simulator.run_until(SimTime::seconds(5));

    tv->set_scenario(Scenario::kLinear);
    const auto linear = tv->screen_at(SimTime::minutes(2));
    ASSERT_TRUE(linear.has_value());

    tv->set_scenario(Scenario::kHdmi);
    const auto hdmi = tv->screen_at(SimTime::minutes(2));
    ASSERT_TRUE(hdmi.has_value());
    EXPECT_NE(fp::dhash(linear->frame), fp::dhash(hdmi->frame));

    tv->power_off();
    EXPECT_FALSE(tv->screen_at(SimTime::minutes(2)).has_value());
}

TEST_F(TvFixture, AcrClientUploadsWhenActive) {
    tv->set_scenario(Scenario::kLinear);
    tv->power_on();
    simulator.run_until(SimTime::minutes(4));
    EXPECT_TRUE(tv->acr().running());
    EXPECT_EQ(tv->acr().mode(), AcrMode::kActive);
    EXPECT_GE(tv->acr().batches_uploaded(), 2U);
    EXPECT_GT(tv->acr().captures_taken(), 100U);
    EXPECT_GE(backend->batches_received(), 2U);
    EXPECT_GE(backend->batches_matched(), 1U);
}

TEST_F(TvFixture, MidRunOptOutStopsAcr) {
    tv->set_scenario(Scenario::kLinear);
    tv->power_on();
    simulator.run_until(SimTime::minutes(3));
    ASSERT_TRUE(tv->acr().running());
    const auto uploads_before = tv->acr().batches_uploaded();

    tv->opt_out_all();
    EXPECT_FALSE(tv->acr().running());
    simulator.run_until(SimTime::minutes(8));
    EXPECT_EQ(tv->acr().batches_uploaded(), uploads_before);

    // Opting back in restarts the client.
    tv->opt_in_all();
    EXPECT_TRUE(tv->acr().running());
    simulator.run_until(SimTime::minutes(11));
    EXPECT_GT(tv->acr().batches_uploaded(), uploads_before);
}

TEST_F(TvFixture, OptOutAndInAtOneInstantLeavesOneChainOfEach) {
    // Restart the client while its capture timer and its upload, keep-alive
    // and ingestion chains are all armed, with no event in between. The
    // restarted client must run one chain of each, not its own plus the
    // stopped one's. (Config is fetched once per start: no calibration
    // refreshes it.)
    tv->set_scenario(Scenario::kLinear);
    tv->power_on();
    const SimTime restart = SimTime::minutes(5);
    simulator.run_until(restart);
    ASSERT_EQ(tv->acr().mode(), AcrMode::kActive);

    const auto profile = platform_profile(Brand::kSamsung, Country::kUk);
    std::optional<net::Ipv4Address> keepalive_ip;
    for (const auto& domain : profile.acr_domains) {
        if (domain.role == AcrDomainRole::kKeepAlive) {
            keepalive_ip = cloud.zone().resolve_a(dns::DomainName::parse(domain.name).value());
        }
    }
    ASSERT_TRUE(keepalive_ip.has_value());
    const net::Ipv4Address tv_ip = tv->station().ip();
    // One request segment per keep-alive: count the TV's data-bearing
    // segments to the keep-alive endpoint.
    const auto keepalives_since = [&](std::size_t first_packet) {
        std::uint64_t sent = 0;
        for (std::size_t i = first_packet; i < capture.size(); ++i) {
            const auto parsed = net::parse_packet(capture[i]);
            if (parsed.ok() && parsed.value().tcp && parsed.value().ip &&
                parsed.value().ip->source == tv_ip &&
                parsed.value().ip->destination == *keepalive_ip &&
                !parsed.value().payload.empty()) {
                ++sent;
            }
        }
        return sent;
    };
    ASSERT_GE(tv->acr().batches_uploaded(), 3U);
    ASSERT_GE(keepalives_since(0), 1U);
    ASSERT_GE(backend->telemetry_events(), 8U);

    const auto uploads_before = tv->acr().batches_uploaded();
    const auto captures_before = tv->acr().captures_taken();
    const auto telemetry_before = backend->telemetry_events();
    const std::size_t packets_before = capture.size();
    tv->opt_out_all();
    tv->opt_in_all();
    ASSERT_TRUE(tv->acr().running());
    const SimTime window = SimTime::minutes(12);
    simulator.run_until(restart + window);

    // Each chain re-arms from the reopened channel, a fraction of a second
    // after the restart, and waits its period plus a sub-second jitter.
    const auto schedule = acr_schedule(Brand::kSamsung);
    const auto calibration = acr_calibration(Brand::kSamsung, Country::kUk);
    const auto per_window = [&](SimTime period) {
        return static_cast<std::uint64_t>(window / period);
    };
    const auto uploads = tv->acr().batches_uploaded() - uploads_before;
    EXPECT_GE(uploads, per_window(schedule.upload_period) - 1);
    EXPECT_LE(uploads, per_window(schedule.upload_period));
    const auto captures = tv->acr().captures_taken() - captures_before;
    EXPECT_GE(captures, per_window(schedule.capture_period) - 10);
    EXPECT_LE(captures, per_window(schedule.capture_period));
    const auto keepalives = keepalives_since(packets_before);
    EXPECT_GE(keepalives, per_window(calibration.keepalive_period) - 1);
    EXPECT_LE(keepalives, per_window(calibration.keepalive_period));
    const auto telemetry = backend->telemetry_events() - telemetry_before;
    EXPECT_GE(telemetry, per_window(calibration.ingestion_period) - 2);
    EXPECT_LE(telemetry, per_window(calibration.ingestion_period));
}

TEST_F(TvFixture, LoginStatusDoesNotChangeAcrBehaviour) {
    tv->set_scenario(Scenario::kLinear);
    tv->login();
    tv->power_on();
    simulator.run_until(SimTime::minutes(3));
    const auto uploads_logged_in = tv->acr().batches_uploaded();
    tv->logout();  // paper §4.2: login status has no material impact
    simulator.run_until(SimTime::minutes(6));
    EXPECT_GT(tv->acr().batches_uploaded(), uploads_logged_in);
    EXPECT_TRUE(tv->acr().running());
}

TEST_F(TvFixture, ChannelZappingChangesScreenContent) {
    tv->set_scenario(Scenario::kLinear);
    tv->power_on();
    simulator.run_until(SimTime::seconds(5));

    EXPECT_EQ(tv->current_channel(), 0);
    const auto before = tv->screen_at(SimTime::minutes(2));
    tv->next_channel();
    EXPECT_EQ(tv->current_channel(), 1);
    const auto after = tv->screen_at(SimTime::minutes(2));
    ASSERT_TRUE(before.has_value());
    ASSERT_TRUE(after.has_value());
    EXPECT_NE(fp::dhash(before->frame), fp::dhash(after->frame));

    // The lineup wraps.
    tv->next_channel();
    tv->next_channel();
    EXPECT_EQ(tv->current_channel(), 0);
    const auto wrapped = tv->screen_at(SimTime::minutes(2));
    EXPECT_EQ(fp::dhash(before->frame), fp::dhash(wrapped->frame));
}

TEST_F(TvFixture, AcrKeepsMatchingAcrossZaps) {
    tv->set_scenario(Scenario::kLinear);
    tv->power_on();
    for (int minute = 1; minute <= 5; ++minute) {
        simulator.run_until(SimTime::minutes(minute));
        tv->next_channel();
    }
    simulator.run_until(SimTime::minutes(7));
    EXPECT_GE(backend->batches_received(), 4U);
    // Zapping mid-batch can cost an occasional match, but most batches are
    // dominated by one channel and resolve.
    EXPECT_GE(backend->batches_matched() * 3, backend->batches_received() * 2);
}

TEST_F(TvFixture, DeviceIdentifiersAreStable) {
    EXPECT_NE(tv->device_id(), 0U);
    EXPECT_NE(tv->advertising_id(), 0U);
    EXPECT_NE(tv->device_id(), tv->advertising_id());
}

}  // namespace
}  // namespace tvacr::tv
