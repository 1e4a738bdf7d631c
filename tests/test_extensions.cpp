// Tests for the future-work extensions: MITM payload auditing, the
// ACR -> ad-personalization link, DNS blocklist interventions, and fault
// injection on the resolver path.
#include <gtest/gtest.h>

#include "analysis/acr_detect.hpp"
#include "analysis/stream.hpp"
#include "core/campaign.hpp"
#include "core/mitm_audit.hpp"
#include "sim/dns_client.hpp"
#include "tv/ads.hpp"

namespace tvacr {
namespace {

// ------------------------------------------------------------------- MITM

core::ExperimentSpec mitm_spec(tv::Scenario scenario, tv::Phase phase = tv::Phase::kLInOIn) {
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kSamsung;
    spec.country = tv::Country::kUk;
    spec.scenario = scenario;
    spec.phase = phase;
    spec.duration = SimTime::minutes(6);
    spec.seed = 8;
    return spec;
}

TEST(MitmAuditTest, RevealsBatchContentsOnLinear) {
    const auto report = core::MitmAudit::run(mitm_spec(tv::Scenario::kLinear));
    EXPECT_GT(report.records_total, 10U);
    EXPECT_EQ(report.records_unparsed, 0U);

    const core::MitmDomainFinding* fingerprint_channel = nullptr;
    for (const auto& finding : report.findings) {
        if (finding.domain == "acr-eu-prd.samsungcloud.tv") fingerprint_channel = &finding;
    }
    ASSERT_NE(fingerprint_channel, nullptr);
    EXPECT_GT(fingerprint_channel->fingerprint_records, 100U);
    EXPECT_EQ(fingerprint_channel->device_ids.size(), 1U);  // one stable identifier
    EXPECT_GT(fingerprint_channel->recognized_responses, 0U);
    EXPECT_FALSE(fingerprint_channel->recognized_titles.empty());
    EXPECT_GT(fingerprint_channel->message_counts.at(tv::AcrMessageType::kFingerprintBatch), 3U);
}

TEST(MitmAuditTest, QuietScenarioCarriesNoFingerprints) {
    const auto report = core::MitmAudit::run(mitm_spec(tv::Scenario::kOtt));
    for (const auto& finding : report.findings) {
        EXPECT_EQ(finding.fingerprint_records, 0U) << finding.domain;
    }
}

TEST(MitmAuditTest, OptedOutInterceptsNothingOnAcrChannels) {
    const auto report = core::MitmAudit::run(
        mitm_spec(tv::Scenario::kLinear, tv::Phase::kLInOOut));
    EXPECT_EQ(report.records_total, 0U);
}

TEST(MitmAuditTest, WithoutMitmConfigNoPlaintextIsRecorded) {
    const auto spec = mitm_spec(tv::Scenario::kLinear);
    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));  // mitm=false
    (void)core::ExperimentRunner::run_on(bed, spec);
    EXPECT_TRUE(bed.mitm_records().empty());
}

TEST(MitmAuditTest, RenderMentionsLinkability) {
    const auto report = core::MitmAudit::run(mitm_spec(tv::Scenario::kLinear));
    const std::string text = report.render();
    EXPECT_NE(text.find("device identifiers"), std::string::npos);
    EXPECT_NE(text.find("fingerprint-batch"), std::string::npos);
}

// --------------------------------------------------------------------- ads

struct AdsFixture : ::testing::Test {
    fp::ContentLibrary library;
    std::unique_ptr<fp::AudienceProfiler> profiler;

    void SetUp() override {
        for (const auto& info : fp::builtin_catalog(21)) library.add(info);
        profiler = std::make_unique<fp::AudienceProfiler>(library);
    }

    void give_profile(std::uint64_t device, std::uint64_t content_id, SimTime watched) {
        fp::MatchResult match;
        match.content_id = content_id;
        match.confidence = 0.9;
        profiler->record_match(device, match, watched);
    }

    [[nodiscard]] std::uint64_t sports_content() const {
        for (const auto& [id, entry] : library.entries()) {
            if (entry.info.genre == fp::Genre::kSports) return id;
        }
        return 0;
    }
};

TEST_F(AdsFixture, CreativePoolCoversAllSegments) {
    const auto creatives = tv::builtin_creatives();
    std::set<std::string> targets;
    int untargeted = 0;
    for (const auto& creative : creatives) {
        if (creative.target_segment.empty()) {
            ++untargeted;
        } else {
            targets.insert(creative.target_segment);
        }
    }
    EXPECT_GE(untargeted, 3);
    for (const char* segment : {"sports-enthusiast", "news-junkie", "household-with-children",
                                "binge-watcher", "gamer", "shopping-intender"}) {
        EXPECT_TRUE(targets.contains(segment)) << segment;
    }
}

TEST_F(AdsFixture, ProfiledDeviceGetsTargetedMajority) {
    give_profile(42, sports_content(), SimTime::hours(2));
    tv::AdDecisionService ads(*profiler, 5);
    int sports_ads = 0;
    for (int i = 0; i < 300; ++i) {
        const auto decision = ads.select(42);
        if (decision.personalized) {
            EXPECT_EQ(decision.matched_segment, "sports-enthusiast");
            ++sports_ads;
        }
    }
    // targeting_rate 0.75 +/- sampling noise.
    EXPECT_GT(sports_ads, 180);
    EXPECT_LT(sports_ads, 280);
    EXPECT_EQ(ads.personalized_decisions(), static_cast<std::uint64_t>(sports_ads));
}

TEST_F(AdsFixture, UnprofiledDeviceNeverPersonalized) {
    tv::AdDecisionService ads(*profiler, 5);
    for (int i = 0; i < 100; ++i) {
        const auto decision = ads.select(777);
        EXPECT_FALSE(decision.personalized);
        EXPECT_TRUE(decision.creative.target_segment.empty());
    }
    EXPECT_EQ(ads.personalized_decisions(), 0U);
}

TEST_F(AdsFixture, TargetingRateZeroDisablesPersonalization) {
    give_profile(42, sports_content(), SimTime::hours(2));
    tv::AdOptions options;
    options.targeting_rate = 0.0;
    tv::AdDecisionService ads(*profiler, 5, options);
    for (int i = 0; i < 50; ++i) EXPECT_FALSE(ads.select(42).personalized);
}

TEST_F(AdsFixture, DeterministicForSeed) {
    give_profile(42, sports_content(), SimTime::hours(2));
    tv::AdDecisionService a(*profiler, 9);
    tv::AdDecisionService b(*profiler, 9);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(a.select(42).creative.id, b.select(42).creative.id);
    }
}

// --------------------------------------------------------- DNS intervention

TEST(BlocklistTest, BlockedNamesAnswerNxdomainAndAcrStops) {
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kLg;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.duration = SimTime::minutes(5);
    spec.seed = 61;

    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    bed.cloud().block_domain("alphonso.tv");
    const auto result = core::ExperimentRunner::run_on(bed, spec);

    EXPECT_GT(bed.cloud().blocked_queries(), 0U);
    EXPECT_EQ(result.batches_uploaded, 0U);
    const auto trace = core::trace_of(result);
    EXPECT_DOUBLE_EQ(trace.total_acr_kb, 0.0);
    // Non-blocked platform traffic still flows.
    EXPECT_GT(result.capture.size(), 20U);
}

TEST(BlocklistTest, SubdomainMatching) {
    sim::Simulator simulator;
    sim::Cloud cloud(simulator, 1);
    cloud.block_domain("alphonso.tv");
    EXPECT_TRUE(cloud.is_blocked(dns::DomainName::parse("eu-acr9.alphonso.tv").value()));
    EXPECT_TRUE(cloud.is_blocked(dns::DomainName::parse("alphonso.tv").value()));
    EXPECT_FALSE(cloud.is_blocked(dns::DomainName::parse("alphonso.tv.example.com").value()));
    EXPECT_FALSE(cloud.is_blocked(dns::DomainName::parse("samsungacr.com").value()));
}

// ------------------------------------------------------------ voice service

TEST(VoiceToggleTest, VoiceServiceGatedIndependentlyOfAcr) {
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kLg;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.duration = SimTime::minutes(12);
    spec.seed = 71;

    const auto voice_domain = tv::platform_profile(spec.brand, spec.country).voice_domain;
    ASSERT_FALSE(voice_domain.empty());

    // Baseline: both services run.
    {
        core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
        const auto result = core::ExperimentRunner::run_on(bed, spec);
        const auto analyzer = result.analyze();
        EXPECT_GT(analyzer.kilobytes_for(voice_domain), 1.0);
        EXPECT_GT(core::trace_of(result).total_acr_kb, 100.0);
    }
    // Flip only the voice agreement: voice goes silent, ACR unaffected.
    {
        core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
        ASSERT_TRUE(bed.tv().set_privacy_toggle("Voice information agreement", false));
        bed.tv().set_scenario(spec.scenario);
        bed.plug().schedule_cycle(SimTime::seconds(1), SimTime::seconds(1) + spec.duration);
        bed.simulator().run_until(SimTime::seconds(6) + spec.duration);
        const auto analyzer = analysis::analyze_packets(bed.capture(), bed.tv().station().ip());
        EXPECT_DOUBLE_EQ(analyzer.kilobytes_for(voice_domain), 0.0);
        double acr_kb = 0.0;
        for (const auto& domain : bed.tv().acr().domain_names()) {
            acr_kb += analyzer.kilobytes_for(domain);
        }
        EXPECT_GT(acr_kb, 100.0);
    }
    // Flip only viewing information: ACR goes silent, voice continues.
    {
        core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
        ASSERT_TRUE(bed.tv().set_privacy_toggle("Viewing information agreement", false));
        bed.tv().set_scenario(spec.scenario);
        bed.plug().schedule_cycle(SimTime::seconds(1), SimTime::seconds(1) + spec.duration);
        bed.simulator().run_until(SimTime::seconds(6) + spec.duration);
        const auto analyzer = analysis::analyze_packets(bed.capture(), bed.tv().station().ip());
        EXPECT_GT(analyzer.kilobytes_for(voice_domain), 1.0);
        double acr_kb = 0.0;
        for (const auto& domain : bed.tv().acr().domain_names()) {
            acr_kb += analyzer.kilobytes_for(domain);
        }
        EXPECT_DOUBLE_EQ(acr_kb, 0.0);
    }
}

TEST(VoiceToggleTest, SamsungHasNoVoiceService) {
    // Table 1 lists no Samsung voice toggle; the profile has no endpoint.
    EXPECT_TRUE(tv::platform_profile(tv::Brand::kSamsung, tv::Country::kUk).voice_domain.empty());
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kSamsung;
    spec.duration = SimTime::minutes(2);
    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    EXPECT_EQ(bed.tv().voice(), nullptr);
}

// ------------------------------------------------- lossy network experiment

TEST(LossyExperimentTest, AcrPipelineSurvivesPathLoss) {
    // 5% data loss on every ACR route: the client retransmits, the backend
    // still recognizes content, and the analysis still identifies the
    // endpoints — the audit methodology is robust to real-world loss.
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kLg;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.duration = SimTime::minutes(6);
    spec.seed = 99;

    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    for (const auto& domain : bed.tv().acr().domain_names()) {
        if (const auto address = bed.address_of(domain)) {
            bed.cloud().set_route_loss(*address, 0.05);
        }
    }
    const auto result = core::ExperimentRunner::run_on(bed, spec);
    EXPECT_GT(bed.cloud().data_segments_dropped(), 0U);
    EXPECT_GT(result.backend_matches, 3U);

    const auto analyzer = result.analyze();
    const analysis::AcrDomainIdentifier identifier;
    const auto acr = identifier.acr_domains(analyzer, nullptr, spec.duration);
    EXPECT_EQ(acr.size(), 1U);
}

// ------------------------------------------------------------ loss injection

struct LossyFixture : ::testing::Test {
    sim::Simulator simulator;
    sim::Cloud cloud{simulator, 3};
    sim::AccessPoint ap{simulator, net::MacAddress::local(1), net::Ipv4Address(192, 168, 4, 1),
                        sim::LatencyModel{SimTime::millis(2), SimTime::micros(100)}, 4};
    sim::Station tv{simulator, "tv", net::MacAddress::local(2), net::Ipv4Address(192, 168, 4, 23)};

    void SetUp() override {
        ap.set_cloud(cloud);
        tv.attach(ap);
        cloud.enable_dns(net::Ipv4Address(9, 9, 9, 9));
        cloud.zone().add_a("acr-eu-prd.samsungcloud.tv", net::Ipv4Address(23, 0, 1, 10));
    }
};

TEST_F(LossyFixture, ResolverRetriesThroughModerateLoss) {
    cloud.set_dns_drop_rate(0.5);
    sim::DnsClient resolver(simulator, tv, cloud.dns_ip(), 77);
    int resolved = 0;
    int failed = 0;
    for (int i = 0; i < 20; ++i) {
        resolver.resolve("acr-eu-prd.samsungcloud.tv",
                         [&](std::optional<net::Ipv4Address> address) {
                             (address ? resolved : failed) += 1;
                         });
        simulator.run_all();
    }
    // With 3 attempts at 50% loss, the failure probability per lookup is
    // 12.5%; the first success also populates the cache, making later
    // lookups loss-immune.
    EXPECT_GT(resolved, 15);
    EXPECT_EQ(resolved + failed, 20);
}

TEST_F(LossyFixture, TotalLossFailsCleanlyAfterRetries) {
    cloud.set_dns_drop_rate(1.0);
    sim::DnsClient::Config config;
    config.timeout = SimTime::seconds(1);
    config.max_attempts = 2;
    sim::DnsClient resolver(simulator, tv, cloud.dns_ip(), 77, config);
    bool called = false;
    std::optional<net::Ipv4Address> answer;
    resolver.resolve("acr-eu-prd.samsungcloud.tv", [&](std::optional<net::Ipv4Address> address) {
        called = true;
        answer = address;
    });
    simulator.run_all();
    EXPECT_TRUE(called);
    EXPECT_FALSE(answer.has_value());
    EXPECT_EQ(resolver.queries_sent(), 2U);
}

}  // namespace
}  // namespace tvacr
