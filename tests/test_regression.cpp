// Full-length regression guard: one pair of flagship experiments at the
// paper's true one-hour duration, asserting the headline Table-2 cells stay
// within 2x of the published values. This is the canary that catches
// calibration drift from any future change; the benches print the full
// tables.
//
// The GoldenTrace tests below are stricter: a small fixed-seed experiment's
// pcap bytes and report JSON are compared byte-for-byte against checked-in
// files under tests/golden/. Any intentional behaviour change must
// regenerate them:
//
//   TVACR_UPDATE_GOLDEN=1 ./build/tests/test_regression --gtest_filter='GoldenTrace.*'
//
// and the regenerated files reviewed and committed alongside the change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/acr_detect.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/paper.hpp"
#include "net/pcap.hpp"

namespace tvacr::core {
namespace {

ExperimentSpec uk_linear_hour(tv::Brand brand) {
    ExperimentSpec spec;
    spec.brand = brand;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.phase = tv::Phase::kLInOIn;
    spec.duration = SimTime::hours(1);
    spec.seed = 2024;
    return spec;
}

double hourly_kb(tv::Brand brand, const std::string& domain) {
    const auto trace = trace_of(ExperimentRunner::run(uk_linear_hour(brand)));
    const auto it = trace.kb_per_domain.find(domain);
    return it == trace.kb_per_domain.end() ? 0.0 : it->second;
}

TEST(CalibrationRegression, LgLinearHourMatchesTable2) {
    const double measured = hourly_kb(tv::Brand::kLg, "eu-acrX.alphonso.tv");
    const double paper = *paper_kb(tv::Country::kUk, tv::Phase::kLInOIn,
                                   "eu-acrX.alphonso.tv", tv::Scenario::kLinear);
    EXPECT_GT(measured, paper / 2.0);
    EXPECT_LT(measured, paper * 2.0);
    // Tighter aspiration: within 15%.
    EXPECT_NEAR(measured / paper, 1.0, 0.15);
}

TEST(CalibrationRegression, SamsungLinearHourMatchesTable2) {
    const double measured = hourly_kb(tv::Brand::kSamsung, "acr-eu-prd.samsungcloud.tv");
    const double paper = *paper_kb(tv::Country::kUk, tv::Phase::kLInOIn,
                                   "acr-eu-prd.samsungcloud.tv", tv::Scenario::kLinear);
    EXPECT_GT(measured, paper / 2.0);
    EXPECT_LT(measured, paper * 2.0);
    EXPECT_NEAR(measured / paper, 1.0, 0.20);
}

/// identify()'s dominant period of every contacted domain, in seconds.
std::map<std::string, double> hourly_periods(tv::Brand brand) {
    const ExperimentSpec spec = uk_linear_hour(brand);
    const auto result = ExperimentRunner::run(spec);
    std::map<std::string, double> periods;
    for (const auto& finding :
         analysis::AcrDomainIdentifier().identify(result.analyze(), nullptr, spec.duration)) {
        periods[finding.domain] = finding.period_seconds;
    }
    return periods;
}

// No golden or report gates period_seconds, so these pin it per domain. A
// change to the period search or to burst timing has to update them. For the
// ACR channels the search lands on the upload cadence itself (LG 15 s,
// Samsung 60 s, paper §4.1): the first lag within 0.8x of the peak score, not
// the harmonic (30.5 s, 180.5 s) that happens to score highest.
TEST(CalibrationRegression, LgLinearHourPeriodsArePinned) {
    const std::map<std::string, double> expected = {
        {"aic-common.lgthinq.com", 0.0}, {"eu-acr5.alphonso.tv", 15.0},
        {"lgappstv.com", 0.0},           {"lgtvsdp.com", 0.0},
        {"ngfts.lge.com", 0.0},          {"ntp.lge.com", 0.0},
        {"snu.lge.com", 0.0},            {"unresolved:9.9.9.9", 0.0},
        {"us.info.lgsmartad.com", 0.0},
    };
    EXPECT_EQ(hourly_periods(tv::Brand::kLg), expected);
}

TEST(CalibrationRegression, SamsungLinearHourPeriodsArePinned) {
    const std::map<std::string, double> expected = {
        {"acr-eu-prd.samsungcloud.tv", 60.0},
        {"acr0.samsungcloudsolution.com", 240.0},
        {"art.samsungcloud.tv", 0.0},
        {"config.samsungads.com", 0.0},
        {"log-config.samsungacr.com", 0.0},
        {"log-ingestion-eu.samsungacr.com", 30.5},
        {"samsungads.com", 0.0},
        {"samsungcloudsolution.net", 0.0},
        {"samsungotn.net", 0.0},
        {"time.samsungcloudsolution.com", 0.0},
        {"unresolved:9.9.9.9", 0.0},
    };
    EXPECT_EQ(hourly_periods(tv::Brand::kSamsung), expected);
}

// ------------------------------------------------------------ golden traces

#ifndef TVACR_GOLDEN_DIR
#define TVACR_GOLDEN_DIR "tests/golden"
#endif

/// The golden experiment: small (2 simulated minutes), fixed seed, and
/// covering both an ACR-chatty brand path and the report JSON.
ExperimentSpec golden_spec() {
    ExperimentSpec spec;
    spec.brand = tv::Brand::kSamsung;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.phase = tv::Phase::kLInOIn;
    spec.duration = SimTime::minutes(2);
    spec.seed = 7;
    return spec;
}

std::string golden_path(const char* name) {
    return std::string(TVACR_GOLDEN_DIR) + "/" + name;
}

bool update_golden() { return std::getenv("TVACR_UPDATE_GOLDEN") != nullptr; }

std::string read_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream content;
    content << file.rdbuf();
    return content.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream file(path, std::ios::binary);
    file << content;
}

/// Report JSON for the golden experiment: the scenario trace plus the
/// validation-script counters, so drift in either layer is caught.
std::string golden_report_json(const ExperimentResult& result) {
    std::ostringstream json;
    json << "{\"trace\":" << trace_to_json(trace_of(result))
         << ",\"capture_frames\":" << result.capture.size()
         << ",\"batches_uploaded\":" << result.batches_uploaded
         << ",\"captures_taken\":" << result.captures_taken
         << ",\"backend_matches\":" << result.backend_matches
         << ",\"backend_batches\":" << result.backend_batches << "}\n";
    return json.str();
}

TEST(GoldenTrace, PcapBytesMatchCheckedInCapture) {
    const auto result = ExperimentRunner::run(golden_spec());
    const Bytes pcap = net::to_pcap_bytes(result.capture);
    const std::string measured(pcap.begin(), pcap.end());
    const std::string path = golden_path("samsung_uk_linear_2min_seed7.pcap");
    if (update_golden()) {
        write_file(path, measured);
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty()) << "missing golden file " << path
                                 << " — regenerate with TVACR_UPDATE_GOLDEN=1";
    ASSERT_EQ(measured.size(), golden.size());
    EXPECT_TRUE(measured == golden) << "pcap bytes drifted from " << path;
}

TEST(GoldenTrace, ReportJsonMatchesCheckedInReport) {
    const auto result = ExperimentRunner::run(golden_spec());
    const std::string measured = golden_report_json(result);
    const std::string path = golden_path("samsung_uk_linear_2min_seed7.json");
    if (update_golden()) {
        write_file(path, measured);
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string golden = read_file(path);
    ASSERT_FALSE(golden.empty()) << "missing golden file " << path
                                 << " — regenerate with TVACR_UPDATE_GOLDEN=1";
    EXPECT_EQ(measured, golden);
}

}  // namespace
}  // namespace tvacr::core
