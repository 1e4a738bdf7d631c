// Integration tests for the core auditing pipeline: testbed assembly,
// experiment execution (capture workflow), campaign sweeps, the audit
// pipeline end-to-end, paper reference data, and cross-run determinism.
//
// Durations are scaled down (minutes, not the paper's hour) to keep the
// suite fast; the benchmarks run the full-length experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <set>

#include "analysis/acr_detect.hpp"
#include "core/audit.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/matrix_runner.hpp"
#include "core/paper.hpp"
#include "core/validation.hpp"
#include "fault/spec.hpp"
#include "fp/video_fp.hpp"
#include "replay/replay.hpp"

namespace tvacr::core {
namespace {

ExperimentSpec quick_spec(tv::Brand brand, tv::Country country, tv::Scenario scenario,
                          tv::Phase phase, int minutes = 5) {
    ExperimentSpec spec;
    spec.brand = brand;
    spec.country = country;
    spec.scenario = scenario;
    spec.phase = phase;
    spec.duration = SimTime::minutes(minutes);
    spec.seed = 99;
    return spec;
}

// ------------------------------------------------------------------ testbed

TEST(TestbedTest, RegistersAllPlatformDomains) {
    TestbedConfig config;
    config.brand = tv::Brand::kSamsung;
    config.country = tv::Country::kUk;
    Testbed bed(config);

    for (const auto& domain : bed.tv().acr().domain_names()) {
        EXPECT_TRUE(bed.address_of(domain).has_value()) << domain;
    }
    // Ground truth covers every registered server.
    EXPECT_GT(bed.ground_truth().placements().size(), 8U);
    EXPECT_EQ(bed.vantage().name, "London");
}

TEST(TestbedTest, UsVantageIsSanJose) {
    TestbedConfig config;
    config.country = tv::Country::kUs;
    Testbed bed(config);
    EXPECT_EQ(bed.vantage().name, "San Jose");
}

TEST(TestbedTest, AcrEndpointCitiesMatchPaper) {
    TestbedConfig uk;
    uk.brand = tv::Brand::kSamsung;
    uk.country = tv::Country::kUk;
    Testbed bed(uk);
    const auto& truth = bed.ground_truth();

    const auto city_of = [&](const std::string& domain) -> std::string {
        const auto address = bed.address_of(domain);
        if (!address) return "?";
        const auto* city = truth.city_of(*address);
        return city != nullptr ? city->name : "?";
    };
    EXPECT_EQ(city_of("acr-eu-prd.samsungcloud.tv"), "London");
    EXPECT_EQ(city_of("log-ingestion-eu.samsungacr.com"), "London");
    EXPECT_EQ(city_of("acr0.samsungcloudsolution.com"), "Amsterdam");
    EXPECT_EQ(city_of("log-config.samsungacr.com"), "New York");  // §4.1 concern

    TestbedConfig lg_uk;
    lg_uk.brand = tv::Brand::kLg;
    Testbed lg_bed(lg_uk);
    EXPECT_EQ(lg_bed.ground_truth().city_of(*lg_bed.address_of("eu-acr3.alphonso.tv"))->name,
              "Amsterdam");
}

TEST(TestbedTest, RotatingDomainsAllResolve) {
    TestbedConfig config;
    config.brand = tv::Brand::kLg;
    config.country = tv::Country::kUs;
    Testbed bed(config);
    for (int rotation = 0; rotation < 10; ++rotation) {
        EXPECT_TRUE(bed.address_of(tv::rotated_name("tkacrX.alphonso.tv", rotation)).has_value());
    }
}

// A testbed's library is the catalog's library whatever the brand: the
// same video track, and the same reference audio at every step read.
void expect_same_library(const fp::ContentLibrary& got, const fp::ContentLibrary& want) {
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [id, entry] : want.entries()) {
        ASSERT_NE(got.find(id), nullptr) << id;
        const auto hashes = got.reference_hashes(id);
        const auto want_hashes = want.reference_hashes(id);
        EXPECT_TRUE(std::equal(hashes.begin(), hashes.end(), want_hashes.begin(),
                               want_hashes.end()))
            << id;
        const auto steps = static_cast<std::int64_t>(want_hashes.size());
        for (std::int64_t step = 0; step < steps; step += 97) {
            EXPECT_EQ(got.reference_audio(id, step), want.reference_audio(id, step))
                << id << " step " << step;
        }
        EXPECT_EQ(got.reference_audio(id, steps - 1), want.reference_audio(id, steps - 1)) << id;
    }
}

TEST(TestbedTest, LibraryEqualsDirectlyBuiltOneForEveryBrand) {
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        SCOPED_TRACE(tv::to_string(brand));
        TestbedConfig config;
        config.brand = brand;
        const Testbed bed(config);
        fp::ContentLibrary direct;
        for (const auto& info : fp::builtin_catalog(derive_seed(config.seed, 0x11B))) {
            direct.add(info);
        }
        expect_same_library(bed.library(), direct);
    }
}

TEST(TestbedTest, ScreenSampleAndCaptureAgreeInEveryScenario) {
    const fp::AudioWindow silence{};
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        TestbedConfig config;
        config.brand = brand;
        Testbed bed(config);
        auto& tv = bed.tv();
        tv.power_on();
        for (const tv::Scenario scenario :
             {tv::Scenario::kIdle, tv::Scenario::kLinear, tv::Scenario::kFast,
              tv::Scenario::kOtt, tv::Scenario::kHdmi, tv::Scenario::kScreenCast}) {
            SCOPED_TRACE(tv::to_string(brand) + " " + tv::to_string(scenario));
            tv.set_scenario(scenario);
            for (std::int64_t ms = 0; ms < 30 * 60 * 1000; ms += 9'970) {
                const SimTime t = SimTime::millis(ms);
                const auto sample = tv.screen_at(t);
                const auto capture = tv.capture_at(t, /*with_audio=*/true);
                const auto video_only = tv.capture_at(t, /*with_audio=*/false);
                ASSERT_TRUE(sample && capture && video_only);
                EXPECT_EQ(fp::dhash(sample->frame), sample->video) << ms;
                EXPECT_EQ(fp::frame_detail(sample->frame), sample->detail) << ms;
                EXPECT_EQ(capture->fingerprint.video, sample->video) << ms;
                EXPECT_EQ(capture->fingerprint.detail, sample->detail) << ms;
                EXPECT_EQ(std::memcmp(&capture->audio, &sample->audio, sizeof(silence)), 0) << ms;
                EXPECT_EQ(video_only->fingerprint.video, sample->video) << ms;
                EXPECT_EQ(video_only->fingerprint.detail, sample->detail) << ms;
                EXPECT_EQ(std::memcmp(&video_only->audio, &silence, sizeof(silence)), 0) << ms;
            }
        }
        tv.power_off();
        EXPECT_FALSE(tv.screen_at(SimTime::minutes(1)).has_value());
        EXPECT_FALSE(tv.capture_at(SimTime::minutes(1), true).has_value());
    }
}

// --------------------------------------------------------------- experiment

TEST(ExperimentTest, CaptureContainsBootDnsBurst) {
    const auto result = ExperimentRunner::run(
        quick_spec(tv::Brand::kSamsung, tv::Country::kUk, tv::Scenario::kIdle,
                   tv::Phase::kLInOIn, 3));
    ASSERT_FALSE(result.capture.empty());

    const auto analyzer = result.analyze();
    EXPECT_GT(analyzer.dns().responses_seen(), 5U);
    // The queried names include the ACR set for this brand/country.
    std::set<std::string> queried;
    for (const auto& entry : analyzer.dns().queried_names()) queried.insert(entry.name);
    for (const auto& domain : result.true_acr_domains) {
        EXPECT_TRUE(queried.contains(domain)) << domain;
    }
}

TEST(ExperimentTest, LinearProducesAcrTrafficAndMatches) {
    const auto result = ExperimentRunner::run(
        quick_spec(tv::Brand::kLg, tv::Country::kUk, tv::Scenario::kLinear,
                   tv::Phase::kLInOIn, 5));
    EXPECT_GT(result.batches_uploaded, 10U);
    EXPECT_GT(result.captures_taken, 20000U);  // 10 ms cadence
    EXPECT_GT(result.backend_matches, 5U);

    const auto trace = trace_of(result);
    EXPECT_GT(trace.total_acr_kb, 100.0);
}

TEST(ExperimentTest, OptedOutHasZeroAcrTrafficButTvStillWorks) {
    const auto result = ExperimentRunner::run(
        quick_spec(tv::Brand::kSamsung, tv::Country::kUk, tv::Scenario::kLinear,
                   tv::Phase::kLInOOut, 5));
    EXPECT_EQ(result.batches_uploaded, 0U);
    EXPECT_EQ(result.backend_batches, 0U);
    const auto trace = trace_of(result);
    EXPECT_DOUBLE_EQ(trace.total_acr_kb, 0.0);
    // The TV is not dead: platform/background traffic still flows.
    EXPECT_GT(result.capture.size(), 20U);
}

TEST(ExperimentTest, CaptureIsTimeOrderedAndParseable) {
    const auto result = ExperimentRunner::run(
        quick_spec(tv::Brand::kSamsung, tv::Country::kUs, tv::Scenario::kFast,
                   tv::Phase::kLInOIn, 3));
    int parse_failures = 0;
    for (std::size_t i = 0; i < result.capture.size(); ++i) {
        if (!net::parse_packet(result.capture[i]).ok()) ++parse_failures;
        if (i > 0) {
            EXPECT_GE(result.capture[i].timestamp, result.capture[i - 1].timestamp);
        }
    }
    EXPECT_EQ(parse_failures, 0);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
    const auto spec = quick_spec(tv::Brand::kLg, tv::Country::kUs, tv::Scenario::kFast,
                                 tv::Phase::kLInOIn, 3);
    const auto a = ExperimentRunner::run(spec);
    const auto b = ExperimentRunner::run(spec);
    ASSERT_EQ(a.capture.size(), b.capture.size());
    EXPECT_EQ(a.batches_uploaded, b.batches_uploaded);
    std::uint64_t bytes_a = 0;
    std::uint64_t bytes_b = 0;
    for (const auto& packet : a.capture) bytes_a += packet.size();
    for (const auto& packet : b.capture) bytes_b += packet.size();
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST(ExperimentTest, LoginStatusLeavesAcrDomainsUnchanged) {
    // Paper §4.2: the set of ACR domains contacted is identical between
    // logged-in and logged-out phases; volumes differ only by seed noise.
    const auto logged_in = ExperimentRunner::run(
        quick_spec(tv::Brand::kSamsung, tv::Country::kUk, tv::Scenario::kLinear,
                   tv::Phase::kLInOIn, 5));
    const auto logged_out = ExperimentRunner::run(
        quick_spec(tv::Brand::kSamsung, tv::Country::kUk, tv::Scenario::kLinear,
                   tv::Phase::kLOutOIn, 5));
    const auto trace_in = trace_of(logged_in);
    const auto trace_out = trace_of(logged_out);

    std::set<std::string> domains_in;
    std::set<std::string> domains_out;
    for (const auto& [domain, kb] : trace_in.kb_per_domain) {
        if (kb > 0) domains_in.insert(domain);
    }
    for (const auto& [domain, kb] : trace_out.kb_per_domain) {
        if (kb > 0) domains_out.insert(domain);
    }
    EXPECT_EQ(domains_in, domains_out);
    // Total volume within 25% of each other.
    EXPECT_NEAR(trace_in.total_acr_kb, trace_out.total_acr_kb,
                0.25 * trace_in.total_acr_kb);
}

TEST(ExperimentTest, UkVsUsFastDiffers) {
    // Paper §4.3 headline: FAST triggers ACR in the US but not in the UK.
    const auto uk = trace_of(ExperimentRunner::run(
        quick_spec(tv::Brand::kLg, tv::Country::kUk, tv::Scenario::kFast,
                   tv::Phase::kLInOIn, 5)));
    const auto us = trace_of(ExperimentRunner::run(
        quick_spec(tv::Brand::kLg, tv::Country::kUs, tv::Scenario::kFast,
                   tv::Phase::kLInOIn, 5)));
    EXPECT_GT(us.total_acr_kb, 5.0 * uk.total_acr_kb);
}

// --------------------------------------------------- validation grid (param)

struct GridCase {
    tv::Brand brand;
    tv::Country country;
    tv::Scenario scenario;
    tv::Phase phase;
};

class ExperimentGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ExperimentGrid, ShortRunPassesValidationChecks) {
    const auto& param = GetParam();
    ExperimentSpec spec;
    spec.brand = param.brand;
    spec.country = param.country;
    spec.scenario = param.scenario;
    spec.phase = param.phase;
    spec.duration = SimTime::minutes(3);
    spec.seed = 77;
    const auto result = ExperimentRunner::run(spec);
    const auto report = validate_experiment(result);
    EXPECT_TRUE(report.all_passed()) << spec.name() << "\n" << report.render();
}

std::vector<GridCase> grid_cases() {
    std::vector<GridCase> cases;
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        for (const tv::Country country : {tv::Country::kUk, tv::Country::kUs}) {
            for (const tv::Scenario scenario : tv::kAllScenarios) {
                // Two representative phases keep the grid fast while covering
                // both consent states; the full 4-phase grid runs in benches.
                cases.push_back({brand, country, scenario, tv::Phase::kLInOIn});
                cases.push_back({brand, country, scenario, tv::Phase::kLOutOOut});
            }
        }
    }
    return cases;
}

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
    std::string name = to_string(info.param.brand) + "_" + to_string(info.param.country) + "_" +
                       to_string(info.param.scenario) + "_" + to_string(info.param.phase);
    for (auto& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, ExperimentGrid, ::testing::ValuesIn(grid_cases()),
                         grid_name);

// ----------------------------------------------------------------- campaign

TEST(CampaignTest, DisplayDomainCollapsesRotation) {
    EXPECT_EQ(display_domain("eu-acr7.alphonso.tv"), "eu-acrX.alphonso.tv");
    EXPECT_EQ(display_domain("tkacr0.alphonso.tv"), "tkacrX.alphonso.tv");
    EXPECT_EQ(display_domain("acr0.samsungcloudsolution.com"), "acr0.samsungcloudsolution.com");
    EXPECT_EQ(display_domain("log-config.samsungacr.com"), "log-config.samsungacr.com");
}

TEST(CampaignTest, TableRowDomainsMatchPaperRows) {
    const auto uk = CampaignRunner::table_row_domains(tv::Country::kUk);
    ASSERT_EQ(uk.size(), 5U);  // Tables 2/3 have five rows
    EXPECT_EQ(uk[0], "eu-acrX.alphonso.tv");
    const auto us = CampaignRunner::table_row_domains(tv::Country::kUs);
    ASSERT_EQ(us.size(), 4U);  // Tables 4/5 have four rows
    EXPECT_EQ(us[0], "tkacrX.alphonso.tv");
}

TEST(CampaignTest, SweepCoversGridAndRendersTable) {
    const auto traces =
        CampaignRunner::run_sweep(tv::Country::kUk, tv::Phase::kLInOIn, SimTime::minutes(2), 7);
    EXPECT_EQ(traces.size(), 12U);  // 6 scenarios x 2 brands

    const auto table = CampaignRunner::make_table(traces, tv::Country::kUk, tv::Phase::kLInOIn);
    EXPECT_EQ(table.rows.size(), 5U);
    EXPECT_EQ(table.header.size(), 7U);  // domain + 6 scenarios
    const std::string rendered = table.render();
    EXPECT_NE(rendered.find("eu-acrX.alphonso.tv"), std::string::npos);
    EXPECT_NE(rendered.find("Antenna"), std::string::npos);
}

// ------------------------------------------------------ analysis at the tap

/// Both brands x six scenarios x {clean, canonical faults} x {opted in,
/// opted out}, traced so the trace events are compared too. Clean cells run
/// 3 minutes. Faulted cells run 1 minute, which covers the canonical DNS
/// outage, loss, duplication and reordering: after the canonical link
/// outage at 60 s the OTT CDN flow retransmits without end (1.7 million
/// frames, 1.36 GB in 3 minutes), and the stored-frames reference would
/// hold all of it.
std::vector<ExperimentSpec> tap_grid() {
    std::vector<ExperimentSpec> specs;
    for (const bool faults : {false, true}) {
        for (const tv::Phase phase : {tv::Phase::kLInOIn, tv::Phase::kLInOOut}) {
            for (const tv::Scenario scenario : tv::kAllScenarios) {
                for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
                    ExperimentSpec spec =
                        quick_spec(brand, tv::Country::kUk, scenario, phase, faults ? 1 : 3);
                    spec.trace = true;
                    if (faults) spec.faults = fault::canonical_fault_spec();
                    specs.push_back(spec);
                }
            }
        }
    }
    return specs;
}

std::string events_text(const std::vector<analysis::PacketEvent>& events) {
    std::string text;
    for (const auto& event : events) {
        text += std::to_string(event.timestamp.as_micros()) + " " +
                std::to_string(event.frame_bytes) + (event.device_to_server ? " up\n" : " down\n");
    }
    return text;
}

std::string trace_events_text(const std::vector<obs::TraceEvent>& events) {
    std::string text;
    for (const auto& event : events) {
        text += event.name + " " + event.category + " " + event.phase + " " +
                std::to_string(event.ts_us) + " " + std::to_string(event.dur_us) + " " +
                std::to_string(event.pid) + " " + std::to_string(event.tid);
        for (const auto& [key, value] : event.args) text += " " + key + "=" + value;
        text += "\n";
    }
    return text;
}

/// Field-for-field equality of two ScenarioTraces.
void expect_same_trace(const ScenarioTrace& actual, const ScenarioTrace& expected) {
    const std::string cell = expected.spec.name();
    EXPECT_EQ(actual.spec.name(), cell);
    EXPECT_EQ(actual.spec.faults, expected.spec.faults) << cell;
    EXPECT_EQ(actual.spec.duration, expected.spec.duration) << cell;
    EXPECT_EQ(actual.spec.seed, expected.spec.seed) << cell;
    EXPECT_EQ(events_text(actual.acr_events), events_text(expected.acr_events)) << cell;
    ASSERT_EQ(actual.per_domain.size(), expected.per_domain.size()) << cell;
    for (const auto& [domain, events] : expected.per_domain) {
        const auto it = actual.per_domain.find(domain);
        ASSERT_NE(it, actual.per_domain.end()) << cell << " " << domain;
        EXPECT_EQ(events_text(it->second), events_text(events)) << cell << " " << domain;
    }
    // Exact: both sides sum the same stats in the same order.
    EXPECT_EQ(actual.kb_per_domain, expected.kb_per_domain) << cell;
    EXPECT_EQ(actual.total_acr_kb, expected.total_acr_kb) << cell;
    EXPECT_EQ(actual.metrics.to_json(), expected.metrics.to_json()) << cell;
    EXPECT_EQ(trace_events_text(actual.trace_events), trace_events_text(expected.trace_events))
        << cell;
}

/// The whole analysis, every domain included: the canonical report plus each
/// domain's events.
void expect_same_analysis(const analysis::CaptureAnalyzer& actual,
                          const analysis::CaptureAnalyzer& expected, const std::string& cell) {
    EXPECT_EQ(replay::canonical_report(actual), replay::canonical_report(expected)) << cell;
    for (const analysis::DomainStats* stats : expected.domains_by_bytes()) {
        const analysis::DomainStats* other = actual.find(stats->domain);
        ASSERT_NE(other, nullptr) << cell << " " << stats->domain;
        EXPECT_EQ(events_text(other->events), events_text(stats->events))
            << cell << " " << stats->domain;
    }
}

TEST(TapAnalysisTest, EveryCellEqualsTheStoredCapture) {
    const auto specs = tap_grid();
    ASSERT_EQ(specs.size(), 48U);
    bool saw_acr = false;
    bool saw_trace = false;
    for (const auto& spec : specs) {
        const AnalyzedExperiment run = ExperimentRunner::run_analyzed(spec);
        const ExperimentResult stored = ExperimentRunner::run(spec);
        const ScenarioTrace stored_trace = trace_of(stored);
        expect_same_trace(trace_of(run.result, run.analysis), stored_trace);
        expect_same_analysis(run.analysis, stored.analyze(), spec.name());
        saw_acr = saw_acr || !stored_trace.acr_events.empty();
        saw_trace = saw_trace || !stored_trace.trace_events.empty();
    }
    EXPECT_TRUE(saw_acr);
    EXPECT_TRUE(saw_trace);
}

TEST(TapAnalysisTest, RunTracesIsIdenticalAtOneAndFourJobs) {
    const auto specs = tap_grid();
    const auto serial = MatrixRunner(1).run_traces(specs);
    const auto parallel = MatrixRunner(4).run_traces(specs);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) expect_same_trace(parallel[i], serial[i]);
}

TEST(TapAnalysisTest, StreamingPathStoresNoFrames) {
    const ExperimentSpec spec =
        quick_spec(tv::Brand::kSamsung, tv::Country::kUk, tv::Scenario::kOtt, tv::Phase::kLInOIn,
                   3);
    const auto run = ExperimentRunner::run_analyzed(spec);
    const std::uint64_t frames = run.result.metrics.counter_value("ap.frames");
    EXPECT_GT(frames, 0U);
    EXPECT_TRUE(run.result.capture.empty());
    EXPECT_EQ(run.analysis.packets_total(), frames);

    // The same through a bed the caller keeps, as the audit does.
    Testbed bed(ExperimentRunner::testbed_config(spec));
    bed.analyze_at_tap();
    const auto result = ExperimentRunner::run_on(bed, spec);
    EXPECT_TRUE(bed.capture().empty());
    EXPECT_TRUE(result.capture.empty());
    EXPECT_EQ(bed.finish_analysis().packets_total(), frames);
}

// -------------------------------------------------------------------- paper

TEST(PaperDataTest, TablesExistForOptedInPhases) {
    EXPECT_EQ(paper_table(tv::Country::kUk, tv::Phase::kLInOIn).size(), 5U);
    EXPECT_EQ(paper_table(tv::Country::kUk, tv::Phase::kLOutOIn).size(), 5U);
    EXPECT_EQ(paper_table(tv::Country::kUs, tv::Phase::kLInOIn).size(), 4U);
    EXPECT_EQ(paper_table(tv::Country::kUs, tv::Phase::kLOutOIn).size(), 4U);
    EXPECT_TRUE(paper_table(tv::Country::kUk, tv::Phase::kLInOOut).empty());
}

TEST(PaperDataTest, SpotCheckCells) {
    EXPECT_DOUBLE_EQ(*paper_kb(tv::Country::kUk, tv::Phase::kLInOIn, "eu-acrX.alphonso.tv",
                               tv::Scenario::kLinear),
                     4759.7);
    EXPECT_DOUBLE_EQ(*paper_kb(tv::Country::kUs, tv::Phase::kLOutOIn, "tkacrX.alphonso.tv",
                               tv::Scenario::kFast),
                     4832.5);
    // '-' cells are nullopt.
    EXPECT_FALSE(paper_kb(tv::Country::kUk, tv::Phase::kLInOIn, "acr-eu-prd.samsungcloud.tv",
                          tv::Scenario::kIdle)
                     .has_value());
    EXPECT_FALSE(paper_kb(tv::Country::kUk, tv::Phase::kLInOIn, "unknown.example",
                          tv::Scenario::kIdle)
                     .has_value());
}

TEST(PaperDataTest, LinearAndHdmiDominateEveryPublishedTable) {
    // Structural invariant of the paper's data our reproduction relies on.
    for (const tv::Country country : {tv::Country::kUk, tv::Country::kUs}) {
        for (const tv::Phase phase : {tv::Phase::kLInOIn, tv::Phase::kLOutOIn}) {
            const auto rows = paper_table(country, phase);
            ASSERT_FALSE(rows.empty());
            const auto& lg = rows[0];  // alphonso row
            EXPECT_GT(lg.kb[paper_column(tv::Scenario::kLinear)],
                      10 * lg.kb[paper_column(tv::Scenario::kIdle)]);
            EXPECT_GT(lg.kb[paper_column(tv::Scenario::kHdmi)],
                      10 * lg.kb[paper_column(tv::Scenario::kIdle)]);
        }
    }
}

// -------------------------------------------------------------------- audit

TEST(AuditTest, EndToEndIdentifiesExactlyTheTrueDomains) {
    AuditConfig config;
    config.brand = tv::Brand::kSamsung;
    config.country = tv::Country::kUk;
    config.scenario = tv::Scenario::kLinear;
    config.duration = SimTime::minutes(8);
    config.seed = 3;

    const auto report = AuditPipeline::run(config);
    const std::set<std::string> confirmed(report.confirmed_acr_domains.begin(),
                                          report.confirmed_acr_domains.end());
    const std::set<std::string> truth(report.true_acr_domains.begin(),
                                      report.true_acr_domains.end());
    EXPECT_EQ(confirmed, truth);
    EXPECT_GT(report.opted_in_acr_kb, 10.0);
    EXPECT_DOUBLE_EQ(report.opted_out_acr_kb, 0.0);
    EXPECT_GT(report.backend_matches, 0U);
    EXPECT_FALSE(report.audience_segments.empty());

    // Geolocation recovered the placement for every confirmed endpoint.
    EXPECT_EQ(report.geolocation.size(), confirmed.size());
    for (const auto& entry : report.geolocation) {
        ASSERT_NE(entry.result.final_city, nullptr) << entry.domain;
    }
    const std::string rendered = report.render();
    EXPECT_NE(rendered.find("ACR audit"), std::string::npos);
    EXPECT_NE(rendered.find("Geolocation"), std::string::npos);
}

TEST(AuditTest, LgAuditFindsSingleAlphonsoDomain) {
    AuditConfig config;
    config.brand = tv::Brand::kLg;
    config.country = tv::Country::kUs;
    config.scenario = tv::Scenario::kLinear;
    config.duration = SimTime::minutes(6);
    config.seed = 4;
    const auto report = AuditPipeline::run(config);
    ASSERT_EQ(report.confirmed_acr_domains.size(), 1U);
    EXPECT_NE(report.confirmed_acr_domains[0].find("tkacr"), std::string::npos);
}

}  // namespace
}  // namespace tvacr::core
