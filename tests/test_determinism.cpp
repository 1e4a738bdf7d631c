// Determinism guarantees of the parallel campaign engine: a sweep run on
// one worker and on eight workers must be *identical* — same ACR events,
// same per-domain KB, same packet counts — because every matrix cell is an
// isolated simulation and the engine reassembles results in matrix order.
// Same-seed runs are bit-identical down to the capture bytes; different
// seeds diverge.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/matrix_runner.hpp"
#include "fault/spec.hpp"
#include "net/pcap.hpp"
#include "tv/calibration.hpp"

namespace tvacr::core {
namespace {

MatrixSpec uk_us_matrix(std::uint64_t seed) {
    MatrixSpec matrix;
    matrix.countries = {tv::Country::kUk, tv::Country::kUs};
    matrix.phases = {tv::Phase::kLInOIn};
    matrix.duration = SimTime::minutes(2);
    matrix.seed = seed;
    return matrix;
}

void expect_traces_identical(const std::vector<ScenarioTrace>& a,
                             const std::vector<ScenarioTrace>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].spec.name());
        EXPECT_EQ(a[i].spec.name(), b[i].spec.name());
        // Exact double equality is intentional: identical simulations must
        // produce identical arithmetic, not merely close results.
        EXPECT_EQ(a[i].total_acr_kb, b[i].total_acr_kb);
        EXPECT_EQ(a[i].kb_per_domain, b[i].kb_per_domain);
        ASSERT_EQ(a[i].acr_events.size(), b[i].acr_events.size());
        for (std::size_t e = 0; e < a[i].acr_events.size(); ++e) {
            EXPECT_EQ(a[i].acr_events[e].timestamp, b[i].acr_events[e].timestamp);
            EXPECT_EQ(a[i].acr_events[e].frame_bytes, b[i].acr_events[e].frame_bytes);
            EXPECT_EQ(a[i].acr_events[e].device_to_server, b[i].acr_events[e].device_to_server);
        }
        ASSERT_EQ(a[i].per_domain.size(), b[i].per_domain.size());
        for (const auto& [domain, events] : a[i].per_domain) {
            const auto it = b[i].per_domain.find(domain);
            ASSERT_NE(it, b[i].per_domain.end()) << domain;
            EXPECT_EQ(events.size(), it->second.size()) << domain;
        }
    }
}

TEST(MatrixDeterminismTest, UkUsSweepIdenticalWithOneAndEightWorkers) {
    const MatrixSpec matrix = uk_us_matrix(/*seed=*/2024);
    const auto serial = MatrixRunner(1).run(matrix);
    const auto parallel = MatrixRunner(8).run(matrix);
    ASSERT_EQ(serial.size(), 24U);  // 2 countries x 6 scenarios x 2 brands
    expect_traces_identical(serial, parallel);
}

TEST(MatrixDeterminismTest, RunSweepMatchesSerialForAnyWorkerCount) {
    const auto serial = CampaignRunner::run_sweep(tv::Country::kUk, tv::Phase::kLInOIn,
                                                  SimTime::minutes(2), /*seed=*/7, /*jobs=*/1);
    const auto parallel = CampaignRunner::run_sweep(tv::Country::kUk, tv::Phase::kLInOIn,
                                                    SimTime::minutes(2), /*seed=*/7, /*jobs=*/8);
    expect_traces_identical(serial, parallel);
}

TEST(MatrixDeterminismTest, SameSeedCapturesAreBitIdentical) {
    // Down to the pcap bytes: captures from two parallel runs of the same
    // matrix must match byte for byte.
    MatrixSpec matrix = uk_us_matrix(/*seed=*/99);
    matrix.scenarios = {tv::Scenario::kLinear};  // keep captures small
    const auto specs = MatrixRunner::expand(matrix);
    ASSERT_EQ(specs.size(), 4U);
    const auto first = MatrixRunner(8).run_experiments(specs);
    const auto second = MatrixRunner(8).run_experiments(specs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(specs[i].name());
        EXPECT_EQ(first[i].capture.size(), second[i].capture.size());
        EXPECT_EQ(net::to_pcap_bytes(first[i].capture), net::to_pcap_bytes(second[i].capture));
        EXPECT_EQ(first[i].batches_uploaded, second[i].batches_uploaded);
        EXPECT_EQ(first[i].backend_matches, second[i].backend_matches);
    }
}

TEST(MatrixDeterminismTest, MetricsAndTraceBytesIdenticalAcrossWorkerCounts) {
    // The observability layer is part of the determinism contract: the
    // merged metrics JSON/CSV and the merged sim-time trace must be
    // byte-identical between --jobs 1 and --jobs 8 for the same seed.
    MatrixSpec matrix = uk_us_matrix(/*seed=*/2024);
    matrix.scenarios = {tv::Scenario::kLinear, tv::Scenario::kIdle};
    matrix.trace = true;
    const auto serial = MatrixRunner(1).run(matrix);
    const auto parallel = MatrixRunner(8).run(matrix);
    ASSERT_EQ(serial.size(), parallel.size());

    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].spec.name());
        EXPECT_EQ(serial[i].metrics.to_json(), parallel[i].metrics.to_json());
    }

    const std::string serial_json = merged_metrics(serial).to_json();
    const std::string parallel_json = merged_metrics(parallel).to_json();
    EXPECT_EQ(serial_json, parallel_json);
    EXPECT_EQ(merged_metrics(serial).to_csv(), merged_metrics(parallel).to_csv());
    // The sweep actually produced traffic, and the emission points fired.
    EXPECT_NE(serial_json.find("\"dns.queries\""), std::string::npos);
    EXPECT_NE(serial_json.find("\"tcp.connects\""), std::string::npos);
    EXPECT_NE(serial_json.find("\"acr.batches\""), std::string::npos);
    EXPECT_NE(serial_json.find("\"ap.frames\""), std::string::npos);

    EXPECT_EQ(merged_trace(serial).to_chrome_json(), merged_trace(parallel).to_chrome_json());
    EXPECT_FALSE(merged_trace(serial).empty());
}

TEST(MatrixDeterminismTest, ImpairedSweepIdenticalAcrossWorkerCounts) {
    // The fault layer joins the determinism contract: a campaign run over
    // the canonical impaired link must replay byte-identically for any
    // --jobs value. Every impairment decision draws from a substream keyed
    // by (seed, link-id, direction) against the sim clock, so worker count
    // and scheduling order cannot leak into the verdict sequence.
    MatrixSpec matrix = uk_us_matrix(/*seed=*/2024);
    matrix.scenarios = {tv::Scenario::kLinear, tv::Scenario::kIdle};
    matrix.faults = fault::canonical_fault_spec();
    const auto specs = MatrixRunner::expand(matrix);
    for (const auto& spec : specs) EXPECT_EQ(spec.faults, matrix.faults);

    const auto serial = MatrixRunner(1).run_experiments(specs);
    const auto parallel = MatrixRunner(8).run_experiments(specs);
    ASSERT_EQ(serial.size(), parallel.size());
    bool any_damage = false;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(specs[i].name());
        EXPECT_EQ(net::to_pcap_bytes(serial[i].capture), net::to_pcap_bytes(parallel[i].capture));
        EXPECT_EQ(serial[i].metrics.to_json(), parallel[i].metrics.to_json());
        EXPECT_EQ(serial[i].batches_uploaded, parallel[i].batches_uploaded);
        EXPECT_EQ(serial[i].backend_matches, parallel[i].backend_matches);
        if (serial[i].metrics.counter_value("link.dropped") > 0) any_damage = true;
    }
    // The sweep was genuinely impaired, not a clean run in disguise.
    EXPECT_TRUE(any_damage);
}

TEST(MatrixDeterminismTest, ImpairedRunsReplayAcrossRepeatedInvocations) {
    // Same impaired matrix, two fresh runner instances: byte-identical
    // artifacts. Catches hidden state leaking between runs (static RNGs,
    // reused substream cursors) that a single jobs-1-vs-8 comparison could
    // miss.
    MatrixSpec matrix = uk_us_matrix(/*seed=*/77);
    matrix.countries = {tv::Country::kUk};
    matrix.scenarios = {tv::Scenario::kLinear};
    matrix.faults = fault::canonical_fault_spec();
    const auto specs = MatrixRunner::expand(matrix);
    const auto first = MatrixRunner(4).run_experiments(specs);
    const auto second = MatrixRunner(4).run_experiments(specs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(specs[i].name());
        EXPECT_EQ(net::to_pcap_bytes(first[i].capture), net::to_pcap_bytes(second[i].capture));
        EXPECT_EQ(first[i].metrics.to_json(), second[i].metrics.to_json());
    }
}

TEST(MatrixDeterminismTest, ProfilingDoesNotPerturbMetrics) {
    // Wall-clock profiling writes only into the caller's profile scope; the
    // deterministic per-cell metrics are unaffected by whether it is on.
    MatrixSpec matrix = uk_us_matrix(/*seed=*/5);
    matrix.countries = {tv::Country::kUk};
    matrix.scenarios = {tv::Scenario::kLinear};
    MatrixRunner plain(8);
    MatrixRunner profiled(8);
    obs::Scope profile;
    profiled.set_profile(&profile);
    const auto without = plain.run(matrix);
    const auto with = profiled.run(matrix);
    EXPECT_EQ(merged_metrics(without).to_json(), merged_metrics(with).to_json());
    // One runner span and one observation per cell landed in the profile.
    EXPECT_EQ(profile.trace.events().size(), with.size());
    const auto* run_hist = profile.metrics.histogram_data("runner.run_us");
    ASSERT_NE(run_hist, nullptr);
    EXPECT_EQ(run_hist->count, with.size());
}

TEST(MatrixDeterminismTest, DifferentSeedsDiverge) {
    MatrixSpec matrix = uk_us_matrix(/*seed=*/1);
    matrix.countries = {tv::Country::kUk};
    matrix.scenarios = {tv::Scenario::kLinear};
    MatrixSpec other = matrix;
    other.seed = 2;
    const auto a = MatrixRunner(2).run_experiments(MatrixRunner::expand(matrix));
    const auto b = MatrixRunner(2).run_experiments(MatrixRunner::expand(other));
    ASSERT_EQ(a.size(), b.size());
    bool any_difference = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (net::to_pcap_bytes(a[i].capture) != net::to_pcap_bytes(b[i].capture)) {
            any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference);
}

MatrixSpec table2_matrix() {
    MatrixSpec matrix;
    matrix.countries = {tv::Country::kUk};
    matrix.phases = {tv::Phase::kLInOIn};
    return matrix;
}

std::vector<std::string> names_in(const std::vector<ExperimentSpec>& specs,
                                  const std::vector<std::size_t>& order) {
    std::vector<std::string> names;
    for (const std::size_t index : order) names.push_back(specs[index].name());
    return names;
}

TEST(MatrixSchedulingTest, CostEstimateRanksTable2LongestFirst) {
    const auto specs = MatrixRunner::expand(table2_matrix());
    const auto ranked = names_in(specs, costliest_first(specs));
    ASSERT_EQ(ranked.size(), 12U);
    // The two LG fingerprinting hours first, in expand order (Linear before
    // HDMI: equal estimates keep input order).
    EXPECT_EQ(ranked[0], "LG/UK/Linear/LIn-OIn");
    EXPECT_EQ(ranked[1], "LG/UK/HDMI/LIn-OIn");
    // Idle, FAST and Screen Cast of both brands close the list.
    std::vector<std::string> tail(ranked.begin() + 6, ranked.end());
    std::sort(tail.begin(), tail.end());
    const std::vector<std::string> cheap = {
        "LG/UK/FAST/LIn-OIn",         "LG/UK/Idle/LIn-OIn",
        "LG/UK/Screen Cast/LIn-OIn",  "Samsung/UK/FAST/LIn-OIn",
        "Samsung/UK/Idle/LIn-OIn",    "Samsung/UK/Screen Cast/LIn-OIn",
    };
    EXPECT_EQ(tail, cheap);

    // Opted-out cells rank below the same cells opted in, and never cost
    // more; a cell that fingerprints when opted in costs strictly more.
    MatrixSpec both = table2_matrix();
    both.countries = {tv::Country::kUk, tv::Country::kUs};
    both.phases = {tv::Phase::kLInOIn, tv::Phase::kLInOOut};
    const auto cells = MatrixRunner::expand(both);
    const auto order = costliest_first(cells);
    std::vector<std::size_t> rank(cells.size());
    for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
    std::size_t pairs = 0;
    for (std::size_t in = 0; in < cells.size(); ++in) {
        if (cells[in].phase != tv::Phase::kLInOIn) continue;
        for (std::size_t out = 0; out < cells.size(); ++out) {
            if (cells[out].phase != tv::Phase::kLInOOut || cells[out].brand != cells[in].brand ||
                cells[out].country != cells[in].country ||
                cells[out].scenario != cells[in].scenario) {
                continue;
            }
            SCOPED_TRACE(cells[in].name());
            ++pairs;
            EXPECT_GT(rank[out], rank[in]);
            EXPECT_LE(estimated_cost(cells[out]), estimated_cost(cells[in]));
            if (tv::acr_mode_for(cells[in].brand, cells[in].country, cells[in].scenario) ==
                tv::AcrMode::kActive) {
                EXPECT_LT(estimated_cost(cells[out]), estimated_cost(cells[in]));
            }
        }
    }
    EXPECT_EQ(pairs, cells.size() / 2);
}

TEST(MatrixSchedulingTest, ProfiledRunStartsCostliestCellsFirst) {
    // The pool's queue is FIFO and stamps each start as the task leaves it,
    // so start times follow the submission ranks exactly.
    constexpr int kJobs = 2;
    MatrixSpec matrix = table2_matrix();
    matrix.duration = SimTime::minutes(2);
    const auto specs = MatrixRunner::expand(matrix);
    const auto order = costliest_first(specs);
    std::map<std::string, std::size_t> rank_of;
    for (std::size_t r = 0; r < order.size(); ++r) rank_of[specs[order[r]].name()] = r;

    MatrixRunner runner(kJobs);
    obs::Scope profile;
    runner.set_profile(&profile);
    (void)runner.run(matrix);
    const auto& events = profile.trace.events();
    ASSERT_EQ(events.size(), specs.size());
    // One span per cell, in input order, named after that cell.
    for (std::size_t i = 0; i < specs.size(); ++i) EXPECT_EQ(events[i].name, specs[i].name());

    // Each span carries the timing of the task that ran its cell: a span
    // that starts strictly earlier has the smaller submission rank. Under
    // the rank-indexed attribution this fails, because spans would then
    // start in input order.
    for (const auto& a : events) {
        for (const auto& b : events) {
            if (a.ts_us < b.ts_us) {
                EXPECT_LT(rank_of.at(a.name), rank_of.at(b.name)) << a.name << " / " << b.name;
            }
        }
    }
    // The kJobs earliest-starting spans are the kJobs costliest cells.
    std::vector<const obs::TraceEvent*> by_start;
    for (const auto& event : events) by_start.push_back(&event);
    std::stable_sort(by_start.begin(), by_start.end(),
                     [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });
    std::set<std::string> first_started;
    std::set<std::string> costliest;
    for (std::size_t r = 0; r < kJobs; ++r) {
        first_started.insert(by_start[r]->name);
        costliest.insert(specs[order[r]].name());
    }
    EXPECT_EQ(first_started, costliest);
    const auto* run_hist = profile.metrics.histogram_data("runner.run_us");
    ASSERT_NE(run_hist, nullptr);
    EXPECT_EQ(run_hist->count, specs.size());
}

TEST(MatrixSchedulingTest, ReorderedSubmissionKeepsOutputBytes) {
    // Opted-in and opted-out cells together, so the submission order
    // interleaves phases and differs from input order.
    MatrixSpec matrix = table2_matrix();
    matrix.phases = {tv::Phase::kLInOIn, tv::Phase::kLOutOOut};
    matrix.duration = SimTime::minutes(2);
    matrix.seed = 31;
    const auto specs = MatrixRunner::expand(matrix);
    const auto order = costliest_first(specs);
    ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));

    const auto reference_runs = MatrixRunner(1).run_experiments(specs);
    const std::string reference_metrics = merged_metrics(MatrixRunner(1).run(matrix)).to_json();
    for (const int jobs : {4, 8}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const auto runs = MatrixRunner(jobs).run_experiments(specs);
        ASSERT_EQ(runs.size(), reference_runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
            SCOPED_TRACE(specs[i].name());
            EXPECT_EQ(runs[i].spec.name(), specs[i].name());
            EXPECT_EQ(net::to_pcap_bytes(runs[i].capture),
                      net::to_pcap_bytes(reference_runs[i].capture));
            EXPECT_EQ(runs[i].metrics.to_json(), reference_runs[i].metrics.to_json());
        }
        EXPECT_EQ(merged_metrics(MatrixRunner(jobs).run(matrix)).to_json(), reference_metrics);
    }
}

TEST(MatrixDeterminismTest, ExpandEnumeratesInMatrixOrder) {
    MatrixSpec matrix;
    matrix.countries = {tv::Country::kUk, tv::Country::kUs};
    matrix.phases = {tv::Phase::kLInOIn, tv::Phase::kLInOOut};
    matrix.scenarios = {tv::Scenario::kIdle, tv::Scenario::kLinear};
    const auto specs = MatrixRunner::expand(matrix);
    ASSERT_EQ(specs.size(), 2U * 2U * 2U * 2U);
    // Brand flips fastest, then scenario, then phase, then country.
    EXPECT_EQ(specs[0].name(), "LG/UK/Idle/LIn-OIn");
    EXPECT_EQ(specs[1].name(), "Samsung/UK/Idle/LIn-OIn");
    EXPECT_EQ(specs[2].name(), "LG/UK/Linear/LIn-OIn");
    EXPECT_EQ(specs[8].name(), "LG/US/Idle/LIn-OIn");
}

}  // namespace
}  // namespace tvacr::core
