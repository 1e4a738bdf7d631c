// acrbench_worker — one repetition of one benchmark workload, in its own
// process, so every timed repetition pays what one tool invocation pays.
//
//   acrbench_worker stamp --dir D
//   acrbench_worker setup --workload W --seed N --dir D [--smoke]
//   acrbench_worker unit  --workload W --seed N --dir D --trace 0|1 [--smoke]
//
// Workloads: cell_lg_linear, campaign_table2, ingest_batch, ingest_gateway
// (see README.md for what each one exercises). `setup` writes the inputs a
// workload needs into D; `unit` runs one unit of work over them and checks
// its output; `stamp` describes the build. Each prints exactly one JSON
// object on stdout. With --trace 1 the unit times its public calls into
// core/fp/tv/net/analysis/replay/gateway and reports the spans; with
// --trace 0 it makes the same calls with no timers in between. --smoke
// shrinks every workload for a quick check that the harness works.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/acr_detect.hpp"
#include "analysis/compare.hpp"
#include "analysis/stream.hpp"
#include "common/thread_pool.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/matrix_runner.hpp"
#include "core/paper.hpp"
#include "core/validation.hpp"
#include "fault/spec.hpp"
#include "fleet/population.hpp"
#include "fleet/sampler.hpp"
#include "fleet/traffic.hpp"
#include "fp/video_fp.hpp"
#include "gateway/gateway.hpp"
#include "gateway/source.hpp"
#include "net/pcap.hpp"
#include "replay/replay.hpp"
#include "tv/calibration.hpp"

using namespace tvacr;

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ arguments

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    bool has_seed = false;
    std::string dir;
    int trace = -1;
    bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "acrbench_worker: %s\n"
                 "usage: acrbench_worker stamp --dir D\n"
                 "       acrbench_worker setup --workload W --seed N --dir D [--smoke]\n"
                 "       acrbench_worker unit --workload W --seed N --dir D --trace 0|1 "
                 "[--smoke]\n",
                 why);
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& text) {
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        usage("malformed number");
    }
    return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
    if (argc < 2) usage("missing mode");
    Args args;
    args.mode = argv[1];
    if (args.mode != "stamp" && args.mode != "setup" && args.mode != "unit") {
        usage("unknown mode");
    }
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value");
        const std::string value = argv[++i];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = parse_u64(value);
            args.has_seed = true;
        } else if (key == "--dir") {
            args.dir = value;
        } else if (key == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            args.trace = value == "1" ? 1 : 0;
        } else {
            usage("unknown flag");
        }
    }
    if (args.dir.empty()) usage("--dir is required");
    if (args.mode == "stamp") return args;
    if (args.workload != "cell_lg_linear" && args.workload != "campaign_table2" &&
        args.workload != "ingest_batch" && args.workload != "ingest_gateway") {
        usage("unknown workload");
    }
    if (!args.has_seed) usage("--seed is required");
    if (args.mode == "unit" && args.trace < 0) usage("--trace is required");
    return args;
}

// ------------------------------------------------------------ tracing

double now_s() {
    using clock = std::chrono::steady_clock;  // tvacr-lint: allow(no-wallclock) bench timing
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Heap in use (small-block arenas plus mmap'd large blocks), in MB. The
/// pcap reader's file mapping is not malloc'd, so it never shows here —
/// unlike peak RSS, which counts resident mapped pages too.
double heap_in_use_mb() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
#else
    return 0.0;
#endif
}

/// The process's peak resident set (VmHWM), in MB. It is read here rather
/// than from the parent's wait4, whose ru_maxrss also counts the pages the
/// child shared with its parent before exec.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
    return 0.0;
}

/// Spans recorded around the benchmark's own calls into the library. A span
/// is summed per name; heap in use is sampled when a coarse span closes.
/// Disabled tracers record nothing, so an untraced unit makes the same
/// calls with no timer between them.
struct Tracer {
    bool enabled = false;
    std::map<std::string, double> seconds;
    std::map<std::string, double> heap_mb;
    std::map<std::string, double> counts;

    void add(const std::string& name, double dt) {
        if (enabled) seconds[name] += dt;
    }
    void count(const std::string& name, double value) {
        if (enabled) counts[name] += value;
    }
};

class Span {
  public:
    Span(Tracer& tracer, const char* name)
        : tracer_(tracer), name_(name), start_(tracer.enabled ? now_s() : 0.0) {}
    ~Span() {
        if (!tracer_.enabled) return;
        tracer_.add(name_, now_s() - start_);
        double& heap = tracer_.heap_mb[name_];
        heap = std::max(heap, heap_in_use_mb());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    std::string name_;
    double start_;
};

// ------------------------------------------------------------ outcome

/// FNV-1a over everything a unit produced, so two repetitions (or a run and
/// the digest recorded with the benchmark) can be compared byte for byte.
struct Digest {
    std::uint64_t state = 1469598103934665603ULL;

    void add(const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= bytes[i];
            state *= 1099511628211ULL;
        }
    }
    void add(const std::string& text) { add(text.data(), text.size()); }
    void add_u64(std::uint64_t value) { add(&value, sizeof(value)); }
    [[nodiscard]] std::string hex() const {
        char out[17];
        std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(state));
        return out;
    }
};

struct Outcome {
    std::uint64_t ops = 0;
    std::uint64_t ops_failed = 0;
    std::vector<std::string> failures;
    Digest digest;
    std::vector<double> snapshot_ms;

    void check(bool passed, const std::string& what) {
        ++ops;
        if (!passed) {
            ++ops_failed;
            if (failures.size() < 20) failures.push_back(what);
        }
    }
};

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

void print_map(std::ostringstream& out, const char* key, const std::map<std::string, double>& map) {
    out << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [name, value] : map) {
        out << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    out << "}";
}

void print_outcome(const Outcome& outcome, const Tracer& tracer, double unit_s) {
    std::ostringstream out;
    out.precision(9);
    out << "{\"ops\":" << outcome.ops << ",\"ops_failed\":" << outcome.ops_failed
        << ",\"digest\":\"" << outcome.digest.hex() << "\",\"unit_s\":" << unit_s
        << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"failures\":[";
    for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
        out << (i ? "," : "") << "\"" << json_escape(outcome.failures[i]) << "\"";
    }
    out << "],\"snapshot_ms\":[";
    for (std::size_t i = 0; i < outcome.snapshot_ms.size(); ++i) {
        out << (i ? "," : "") << outcome.snapshot_ms[i];
    }
    out << "]";
    print_map(out, "spans", tracer.seconds);
    print_map(out, "heap_mb", tracer.heap_mb);
    print_map(out, "counts", tracer.counts);
    out << "}\n";
    std::fputs(out.str().c_str(), stdout);
}

// ------------------------------------------------------------ shared steps

/// The analyzer options tvacr_analyze uses at --jobs 1.
analysis::StreamOptions analyze_options() {
    analysis::StreamOptions options;
    options.shards = 2;
    return options;
}

/// analyze_pcap_stream, or — traced — the same reader/ingest/finish calls
/// with the decode loop, the ingest calls and the final merge timed apart.
Result<analysis::CaptureAnalyzer> analyze_pcap(const std::string& path, net::Ipv4Address device,
                                               Tracer& tracer) {
    if (!tracer.enabled) return analysis::analyze_pcap_stream(path, device, analyze_options());
    double decode_s = 0.0;
    double ingest_s = 0.0;
    double t0 = now_s();
    auto reader = net::PcapReader::open(path);
    if (!reader.ok()) return reader.error();
    analysis::StreamingCaptureAnalyzer analyzer(device, analyze_options());
    std::uint64_t records = 0;
    while (true) {
        auto record = reader.value().next();
        const double t1 = now_s();
        decode_s += t1 - t0;
        if (!record.ok()) return record.error();
        if (!record.value().has_value()) break;
        analyzer.ingest(record.value()->frame, record.value()->timestamp);
        t0 = now_s();
        ingest_s += t0 - t1;
        ++records;
    }
    tracer.add("net.pcap_decode", decode_s);
    tracer.add("analysis.ingest", ingest_s);
    tracer.heap_mb["analysis.ingest"] =
        std::max(tracer.heap_mb["analysis.ingest"], heap_in_use_mb());
    tracer.count("net.records", static_cast<double>(records));
    tracer.count("net.bytes", static_cast<double>(fs::file_size(path)));
    Span span(tracer, "analysis.finish");
    return analyzer.finish();
}

void fold_cell_counts(const obs::Registry& metrics, Tracer& tracer) {
    for (const char* name : {"ap.frames", "acr.batches", "dns.queries", "acr.captures"}) {
        tracer.count(name, static_cast<double>(metrics.counter_value(name)));
    }
}

void check_validation(const core::ExperimentResult& result, Outcome& outcome) {
    for (const auto& check : core::validate_experiment(result).checks) {
        outcome.check(check.passed, result.spec.name() + ": " + check.name + " " + check.detail);
    }
}

void digest_capture(const std::vector<net::Packet>& capture, Digest& digest) {
    for (const auto& packet : capture) {
        digest.add_u64(static_cast<std::uint64_t>(packet.timestamp.as_micros()));
        digest.add(packet.data.data(), packet.data.size());
    }
}

// ------------------------------------------------------------ cell_lg_linear

core::ExperimentSpec cell_spec(const Args& args) {
    core::ExperimentSpec spec;
    spec.brand = tv::Brand::kLg;
    spec.country = tv::Country::kUk;
    spec.scenario = tv::Scenario::kLinear;
    spec.phase = tv::Phase::kLInOIn;
    spec.duration = SimTime::minutes(args.smoke ? 2 : 60);
    spec.seed = args.seed;
    return spec;
}

/// Keeps the probe's hash results observable so no call is optimized away.
volatile std::uint64_t g_probe_sink = 0;

/// Replays the cell's fingerprinting on a freshly powered testbed of the
/// same spec: one screen_at + dhash + frame_detail (+ audio_hash) per
/// capture the cell took, at the ACR client's capture cadence. The calls
/// run in blocks, one call kind at a time, so four clock reads cover a
/// whole block; their sum is the fingerprint share of run_on.
void fp_probe(const core::ExperimentSpec& spec, std::uint64_t captures, Tracer& tracer,
              Outcome& outcome) {
    constexpr std::uint64_t kBlock = 512;
    core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
    if (tv::is_logged_in(spec.phase)) bed.tv().login();
    if (tv::is_opted_in(spec.phase)) bed.tv().opt_in_all();
    bed.tv().set_scenario(spec.scenario);
    bed.tv().power_on();
    const tv::AcrSchedule schedule = tv::acr_schedule(spec.brand);
    // Power-on at 1 s, services (and the ACR client) 2 s later.
    SimTime t = SimTime::seconds(3);
    double frame_s = 0.0;
    double dhash_s = 0.0;
    double detail_s = 0.0;
    double audio_s = 0.0;
    std::uint64_t taken = 0;
    std::uint64_t sink = 0;
    std::vector<tv::ScreenSample> samples;
    samples.reserve(kBlock);
    for (std::uint64_t done = 0; done < captures;) {
        const std::uint64_t block = std::min(kBlock, captures - done);
        samples.clear();
        const double t0 = now_s();
        for (std::uint64_t i = 0; i < block; ++i, t = t + schedule.capture_period) {
            if (auto sample = bed.tv().screen_at(t)) samples.push_back(std::move(*sample));
        }
        const double t1 = now_s();
        for (const auto& sample : samples) sink ^= fp::dhash(sample.frame);
        const double t2 = now_s();
        for (const auto& sample : samples) sink ^= fp::frame_detail(sample.frame);
        const double t3 = now_s();
        if (schedule.has_audio) {
            for (const auto& sample : samples) sink ^= fp::audio_hash(sample.audio);
        }
        const double t4 = now_s();
        frame_s += t1 - t0;
        dhash_s += t2 - t1;
        detail_s += t3 - t2;
        audio_s += t4 - t3;
        taken += samples.size();
        done += block;
    }
    g_probe_sink = sink;
    tracer.add("fp.frame", frame_s);
    tracer.add("fp.dhash", dhash_s);
    tracer.add("fp.detail", detail_s);
    tracer.add("fp.audio", audio_s);
    tracer.count("fp.captures", static_cast<double>(taken));
    outcome.check(taken == captures, "fp probe: fp.captures != acr.captures");
}

void unit_cell(const Args& args, Tracer& tracer, Outcome& outcome) {
    const core::ExperimentSpec spec = cell_spec(args);
    std::unique_ptr<core::Testbed> bed;
    {
        Span span(tracer, "core.testbed");
        bed = std::make_unique<core::Testbed>(core::ExperimentRunner::testbed_config(spec));
    }
    core::ExperimentResult result;
    {
        Span span(tracer, "core.run");
        result = core::ExperimentRunner::run_on(*bed, spec);
    }
    const std::string pcap = args.dir + "/cell.pcap";
    {
        Span span(tracer, "net.pcap_write");
        const Status written = net::write_pcap_file(pcap, result.capture);
        outcome.check(written.ok(), "write " + pcap);
        if (!written.ok()) return;
    }
    auto analyzed = analyze_pcap(pcap, result.device_ip, tracer);
    outcome.check(analyzed.ok(), "analyze " + pcap);
    if (!analyzed.ok()) return;
    std::vector<analysis::AcrFinding> findings;
    {
        Span span(tracer, "analysis.identify");
        findings = analysis::AcrDomainIdentifier().identify(analyzed.value(), nullptr,
                                                            spec.duration);
    }
    std::string report;
    {
        Span span(tracer, "replay.report");
        report = replay::canonical_report(analyzed.value());
    }
    {
        Span span(tracer, "core.validation");
        check_validation(result, outcome);
    }
    // The identifier must flag the cell's real ACR endpoint (and only
    // domains the TV really used for ACR).
    bool found_true = false;
    bool false_positive = false;
    for (const auto& finding : findings) {
        const bool truth = std::find(result.true_acr_domains.begin(),
                                     result.true_acr_domains.end(),
                                     finding.domain) != result.true_acr_domains.end();
        if (finding.verdict && truth) found_true = true;
        if (finding.verdict && !truth) false_positive = true;
        outcome.digest.add(finding.domain);
        outcome.digest.add_u64(finding.verdict ? 1 : 0);
    }
    outcome.check(found_true, "identify: true ACR domain not flagged");
    outcome.check(!false_positive, "identify: non-ACR domain flagged");
    digest_capture(result.capture, outcome.digest);
    outcome.digest.add(report);
    if (tracer.enabled) {
        fold_cell_counts(result.metrics, tracer);
        fp_probe(spec, result.metrics.counter_value("acr.captures"), tracer, outcome);
    }
}

// ------------------------------------------------------------ campaign_table2

int campaign_jobs() {
    const unsigned hardware = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hardware), 1, 4);
}

void unit_campaign(const Args& args, Tracer& tracer, Outcome& outcome) {
    const tv::Country country = tv::Country::kUk;
    const tv::Phase phase = tv::Phase::kLInOIn;
    const SimTime duration = SimTime::minutes(args.smoke ? 2 : 60);
    const int jobs = campaign_jobs();

    core::MatrixSpec matrix;
    matrix.countries = {country};
    matrix.phases = {phase};
    matrix.duration = duration;
    matrix.seed = args.seed;
    core::MatrixRunner runner(jobs);
    obs::Scope profile;
    if (tracer.enabled) runner.set_profile(&profile);
    std::vector<core::ScenarioTrace> traces;
    const double campaign_start = now_s();
    {
        Span span(tracer, "core.campaign");
        traces = runner.run(matrix);
    }
    const double campaign_s = now_s() - campaign_start;

    // Table-vs-paper comparison, as bench_table2 prints it.
    analysis::Comparison comparison(/*factor=*/2.0);
    const auto rows = core::CampaignRunner::table_row_domains(country);
    {
        Span span(tracer, "analysis.compare");
        for (const auto& domain : rows) {
            for (const tv::Scenario scenario : tv::kAllScenarios) {
                double kb = 0.0;
                for (const auto& trace : traces) {
                    if (trace.spec.scenario != scenario) continue;
                    const auto it = trace.kb_per_domain.find(domain);
                    if (it != trace.kb_per_domain.end()) kb += it->second;
                }
                kb *= 3600.0 / duration.as_seconds();
                comparison.add(analysis::ComparedCell{domain, tv::table_label(scenario), kb,
                                                      core::paper_kb(country, phase, domain,
                                                                     scenario)});
            }
        }
    }
    const auto summary = comparison.summarize();
    outcome.check(traces.size() == tv::kAllScenarios.size() * 2, "campaign: cell count");
    outcome.check(summary.cells_total ==
                      static_cast<int>(rows.size() * tv::kAllScenarios.size()),
                  "compare: table shape");
    // Fidelity needs the paper's full hour; a --smoke campaign is too short.
    if (!args.smoke) {
        outcome.check(summary.cells_compared > 0 &&
                          summary.within_factor * 2 >= summary.cells_compared,
                      "compare: fewer than half the comparable cells within 2x of the paper");
    }

    // The two validation-script spot checks, one per brand.
    std::vector<core::ExperimentSpec> spot_specs;
    for (const tv::Brand brand : {tv::Brand::kLg, tv::Brand::kSamsung}) {
        core::ExperimentSpec spec;
        spec.brand = brand;
        spec.country = country;
        spec.scenario = tv::Scenario::kLinear;
        spec.phase = phase;
        spec.duration = std::min(duration, SimTime::minutes(10));
        spec.seed = args.seed;
        spot_specs.push_back(spec);
    }
    {
        Span span(tracer, "core.validation");
        for (const auto& result : core::MatrixRunner(jobs).run_experiments(spot_specs)) {
            check_validation(result, outcome);
        }
    }
    outcome.digest.add(core::sweep_to_json(traces, country, phase));
    outcome.digest.add(comparison.to_markdown("Domain"));

    if (!tracer.enabled) return;
    fold_cell_counts(core::merged_metrics(traces), tracer);
    std::vector<double> cell_s;
    double wait_s = 0.0;
    for (const auto& event : profile.trace.events()) {
        if (event.category != "runner" || event.phase != 'X') continue;
        cell_s.push_back(static_cast<double>(event.dur_us) / 1e6);
        for (const auto& [key, value] : event.args) {
            if (key == "queue_wait_us") wait_s += std::stod(value) / 1e6;
        }
    }
    double busy_s = 0.0;
    for (const double s : cell_s) busy_s += s;
    std::sort(cell_s.begin(), cell_s.end());
    tracer.add("core.runner.busy", busy_s);
    tracer.add("core.runner.wait", wait_s);
    tracer.count("core.runner.idle_frac",
                 campaign_s > 0.0 ? 1.0 - busy_s / (campaign_s * jobs) : 0.0);
    if (!cell_s.empty()) {
        tracer.add("core.cell.p50", cell_s[(cell_s.size() - 1) / 2]);
        tracer.add("core.cell.max", cell_s.back());
    }

    // Testbed-build probe: the 14 testbeds the campaign and its spot checks
    // construct, rebuilt on the same number of workers and timed one by one.
    std::vector<core::ExperimentSpec> specs = core::MatrixRunner::expand(matrix);
    specs.insert(specs.end(), spot_specs.begin(), spot_specs.end());
    common::ThreadPool pool(static_cast<std::size_t>(jobs));
    std::vector<std::future<double>> builds;
    builds.reserve(specs.size());
    for (const auto& spec : specs) {
        builds.push_back(pool.submit([spec]() {
            const double t0 = now_s();
            const core::Testbed bed(core::ExperimentRunner::testbed_config(spec));
            return now_s() - t0;
        }));
    }
    for (auto& build : builds) tracer.add("core.testbed", build.get());
}

// ------------------------------------------------------------ ingest

struct Capture {
    std::string pcap;
    std::string report;  // batch canonical report written at set-up
    std::uint64_t records = 0;
};

std::vector<Capture> read_manifest(const std::string& dir) {
    std::vector<Capture> captures;
    std::ifstream manifest(dir + "/manifest.txt");
    std::string name;
    std::uint64_t records = 0;
    while (manifest >> name >> records) {
        captures.push_back(Capture{dir + "/" + name + ".pcap", dir + "/" + name + ".report",
                                   records});
    }
    return captures;
}

std::string read_file(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream out;
    out << file.rdbuf();
    return out.str();
}

/// Household-day captures from the canonical population under the canonical
/// fault spec, rendered until the set holds enough records for one unit.
void setup_ingest(const Args& args, Outcome& outcome) {
    const std::uint64_t target_records = args.smoke ? 20'000 : 150'000;
    const fleet::PopulationSpec population = fleet::canonical_population_spec();
    const fault::FaultSpec faults = fault::canonical_fault_spec();
    const fleet::HouseholdSampler sampler(population, args.seed);
    std::ofstream manifest(args.dir + "/manifest.txt", std::ios::trunc);
    std::uint64_t total = 0;
    for (std::uint64_t id = 0; total < target_records; ++id) {
        const fleet::Household household = sampler.sample(id);
        const fleet::HouseholdTraffic traffic(
            household, population, fleet::household_faults(faults, household, population.day));
        const auto packets = traffic.render();
        if (packets.empty()) continue;
        char name[32];
        std::snprintf(name, sizeof(name), "hh%06llu", static_cast<unsigned long long>(id));
        const std::string base = args.dir + "/" + name;
        const Status written = net::write_pcap_file(base + ".pcap", packets);
        outcome.check(written.ok(), "write " + base + ".pcap");
        auto analyzed = analysis::analyze_pcap_stream(base + ".pcap", fleet::kDeviceIp,
                                                      analyze_options());
        outcome.check(analyzed.ok(), "analyze " + base + ".pcap");
        if (!written.ok() || !analyzed.ok()) return;
        std::ofstream(base + ".report", std::ios::binary | std::ios::trunc)
            << replay::canonical_report(analyzed.value());
        manifest << name << " " << packets.size() << "\n";
        total += packets.size();
    }
    manifest.flush();
    outcome.check(static_cast<bool>(manifest), "write manifest");
}

void unit_ingest_batch(const Args& args, Tracer& tracer, Outcome& outcome) {
    const auto captures = read_manifest(args.dir);
    outcome.check(!captures.empty(), "ingest: empty manifest");
    const std::string tvcr = args.dir + "/replay.tvcr";
    for (const auto& capture : captures) {
        auto analyzed = analyze_pcap(capture.pcap, fleet::kDeviceIp, tracer);
        outcome.check(analyzed.ok(), "analyze " + capture.pcap);
        if (!analyzed.ok()) continue;
        std::string batch_report;
        {
            Span span(tracer, "replay.report");
            batch_report = replay::canonical_report(analyzed.value());
        }
        Result<replay::TranscodeStats> transcoded = make_error("unset");
        {
            Span span(tracer, "replay.transcode");
            transcoded = replay::transcode_pcap_to_tvcr(capture.pcap, tvcr);
        }
        outcome.check(transcoded.ok(), "transcode " + capture.pcap);
        if (!transcoded.ok()) continue;
        Result<analysis::CaptureAnalyzer> replayed = make_error("unset");
        {
            Span span(tracer, "replay.replay");
            auto engine = replay::ReplayEngine::open(tvcr);
            if (engine.ok()) {
                replay::ReplayOptions options;
                options.stream = analyze_options();
                replayed = engine.value().run(fleet::kDeviceIp, options);
            } else {
                replayed = engine.error();
            }
        }
        outcome.check(replayed.ok(), "replay " + capture.pcap);
        if (!replayed.ok()) continue;
        std::string replay_report;
        {
            Span span(tracer, "replay.report");
            replay_report = replay::canonical_report(replayed.value());
        }
        outcome.check(replay_report == batch_report, "replay report != batch report: " +
                                                         capture.pcap);
        outcome.check(batch_report == read_file(capture.report),
                      "batch report != set-up report: " + capture.pcap);
        outcome.digest.add(batch_report);
        tracer.count("replay.blocks", static_cast<double>(transcoded.value().blocks));
    }
}

void unit_ingest_gateway(const Args& args, Tracer& tracer, Outcome& outcome) {
    constexpr std::size_t kChunkBytes = 16 * 1024;
    const auto captures = read_manifest(args.dir);
    outcome.check(!captures.empty(), "gateway: empty manifest");
    double ring_peak = 0.0;
    for (const auto& capture : captures) {
        gateway::GatewayOptions options;
        options.device_ip = fleet::kDeviceIp;
        options.ring_capacity = 4096;
        options.workers = 2;
        std::optional<gateway::Gateway> gw_slot;
        Result<gateway::StreamSource> source = make_error("unset");
        {
            Span span(tracer, "gateway.open");
            gw_slot.emplace(options);
            source = gateway::StreamSource::open_file(capture.pcap);
        }
        gateway::Gateway& gw = *gw_slot;
        outcome.check(source.ok(), "open " + capture.pcap);
        if (!source.ok()) continue;
        const auto snapshot = [&]() {
            Span span(tracer, "gateway.snapshot");
            const double t0 = now_s();
            auto analyzer = gw.snapshot();
            outcome.snapshot_ms.push_back((now_s() - t0) * 1e3);
            return analyzer;
        };
        const std::uint64_t every = std::max<std::uint64_t>(capture.records / 10, 1);
        std::uint64_t next_snapshot = every;
        bool failed = false;
        while (true) {
            Result<gateway::SourceStatus> status = make_error("unset");
            {
                Span span(tracer, "gateway.poll");
                status = source.value().poll(gw, kChunkBytes);
            }
            if (!status.ok()) {
                failed = true;
                break;
            }
            ring_peak = std::max(ring_peak, static_cast<double>(gw.ring_occupancy()));
            {
                Span span(tracer, "gateway.drain");
                gw.drain_all();
            }
            if (gw.drained() >= next_snapshot) {
                (void)snapshot();
                while (next_snapshot <= gw.drained()) next_snapshot += every;
            }
            if (status.value() != gateway::SourceStatus::kProgress) break;
        }
        outcome.check(!failed, "poll " + capture.pcap);
        {
            Span span(tracer, "gateway.finish");
            source.value().finalize(gw);
            gw.drain_all();
        }
        const auto final_snapshot = snapshot();
        std::string report;
        {
            Span span(tracer, "replay.report");
            report = replay::canonical_report(final_snapshot);
        }
        outcome.check(report == read_file(capture.report),
                      "gateway report != batch report: " + capture.pcap);
        outcome.check(gw.conservation_ok(), "gateway conservation: " + capture.pcap);
        outcome.check(gw.dropped_ring_full() == 0, "gateway ring_full drops: " + capture.pcap);
        outcome.digest.add(report);
        tracer.count("gateway.offered", static_cast<double>(gw.offered()));
        tracer.count("gateway.dropped", static_cast<double>(gw.dropped()));
    }
    tracer.count("gateway.ring_peak", ring_peak);
}

// ------------------------------------------------------------ stamp

int stamp(const Args& args) {
    const std::string probe = args.dir + "/stamp_probe.pcap";
    if (!net::write_pcap_file(probe, {}).ok()) {
        std::fprintf(stderr, "acrbench_worker: cannot write %s\n", probe.c_str());
        return 1;
    }
    auto reader = net::PcapReader::open(probe);
    const bool mapped = reader.ok() && reader.value().memory_mapped();
    std::error_code ignored;
    fs::remove(probe, ignored);
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized = std::strstr(ACRBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
    std::printf(
        "{\"build_type\":\"%s\",\"cxx_flags\":\"%s\",\"compiler\":\"%s\",\"optimized\":%s,"
        "\"sanitizer\":%s,\"pcap_backend\":\"%s\",\"hardware_threads\":%u,"
        "\"campaign_jobs\":%d}\n",
        ACRBENCH_BUILD_TYPE, json_escape(ACRBENCH_CXX_FLAGS).c_str(),
        json_escape(__VERSION__).c_str(), optimized ? "true" : "false",
        sanitized ? "true" : "false", mapped ? "mmap" : "buffered",
        std::thread::hardware_concurrency(), campaign_jobs());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (args.mode == "stamp") return stamp(args);

    Tracer tracer;
    tracer.enabled = args.trace == 1;
    Outcome outcome;
    const double start = now_s();
    if (args.mode == "setup") {
        if (args.workload == "ingest_batch" || args.workload == "ingest_gateway") {
            setup_ingest(args, outcome);
        }
    } else if (args.workload == "cell_lg_linear") {
        unit_cell(args, tracer, outcome);
    } else if (args.workload == "campaign_table2") {
        unit_campaign(args, tracer, outcome);
    } else if (args.workload == "ingest_batch") {
        unit_ingest_batch(args, tracer, outcome);
    } else {
        unit_ingest_gateway(args, tracer, outcome);
    }
    print_outcome(outcome, tracer, now_s() - start);
    return 0;
}
