#include "core/experiment.hpp"

#include "analysis/stream.hpp"
#include "replay/tvcr.hpp"

namespace tvacr::core {

std::string ExperimentSpec::name() const {
    return to_string(brand) + "/" + to_string(country) + "/" + to_string(scenario) + "/" +
           to_string(phase);
}

analysis::CaptureAnalyzer ExperimentResult::analyze() const {
    // The streaming engine: its zero-copy parse makes this the fast path,
    // and the result is byte-identical to the serial analyzer (the
    // golden-trace tests enforce it).
    return analysis::analyze_packets(capture, device_ip);
}

Status ExperimentResult::record_tvcr(const std::string& path, bool keep_frames) const {
    replay::TvcrOptions options;
    options.keep_frames = keep_frames;
    return replay::write_tvcr_file(path, capture, options);
}

TestbedConfig ExperimentRunner::testbed_config(const ExperimentSpec& spec) {
    TestbedConfig config;
    config.brand = spec.brand;
    config.country = spec.country;
    const std::uint64_t cell = (static_cast<std::uint64_t>(spec.brand) << 8) ^
                               (static_cast<std::uint64_t>(spec.country) << 4) ^
                               (static_cast<std::uint64_t>(spec.scenario) << 2) ^
                               static_cast<std::uint64_t>(spec.phase);
    config.seed = derive_seed(spec.seed, splitmix64(cell));
    config.logged_in = tv::is_logged_in(spec.phase);
    // The rotating domain number varies between experiments, as observed.
    config.domain_rotation = static_cast<int>(derive_seed(config.seed, 0x207) % 10);
    config.trace = spec.trace;
    config.faults = spec.faults;
    return config;
}

ExperimentResult ExperimentRunner::run(const ExperimentSpec& spec) {
    Testbed bed(testbed_config(spec));
    return run_on(bed, spec);
}

AnalyzedExperiment ExperimentRunner::run_analyzed(const ExperimentSpec& spec) {
    Testbed bed(testbed_config(spec));
    bed.analyze_at_tap();
    ExperimentResult result = run_on(bed, spec);
    return {std::move(result), bed.finish_analysis()};
}

ExperimentResult ExperimentRunner::run_on(Testbed& bed, const ExperimentSpec& spec) {
    // Configure the TV for the phase and scenario before the power cycle
    // (the paper's scripts set state, then run the capture workflow).
    if (tv::is_logged_in(spec.phase)) {
        bed.tv().login();
    } else {
        bed.tv().logout();
    }
    if (tv::is_opted_in(spec.phase)) {
        bed.tv().opt_in_all();
    } else {
        bed.tv().opt_out_all();
    }
    bed.tv().set_scenario(spec.scenario);

    // Capture -> power on -> experiment -> power off.
    const SimTime power_on_at = SimTime::seconds(1);
    const SimTime power_off_at = power_on_at + spec.duration;
    bed.plug().schedule_cycle(power_on_at, power_off_at);
    bed.simulator().run_until(power_off_at + SimTime::seconds(5));

    ExperimentResult result;
    result.spec = spec;
    result.device_ip = bed.tv().station().ip();
    result.batches_uploaded = bed.tv().acr().batches_uploaded();
    result.captures_taken = bed.tv().acr().captures_taken();
    result.backend_matches = bed.backend().batches_matched();
    result.backend_batches = bed.backend().batches_received();
    result.true_acr_domains = bed.tv().acr().domain_names();

    // The backend terminates TLS on the far side of the wire and has no
    // Simulator reference, so its counters are folded into the cell's
    // registry here. Folding the delta keeps repeated run_on calls on one
    // bed from double-counting.
    auto& registry = bed.simulator().obs().metrics;
    const auto fold = [&registry](const char* name, std::uint64_t total) {
        auto counter = registry.counter(name);
        counter.add(total - counter.value());
    };
    fold("acr.backend.batches", bed.backend().batches_received());
    fold("acr.backend.matches", bed.backend().batches_matched());
    fold("acr.backend.heartbeats", bed.backend().heartbeats());
    fold("acr.backend.telemetry", bed.backend().telemetry_events());

    // Snapshot, not move: the bed (and the handles into its registry) lives
    // on — the audit pipeline keeps using it for geolocation.
    result.metrics = registry;
    result.trace_events = bed.simulator().obs().trace.events();

    result.capture = bed.take_capture();
    return result;
}

}  // namespace tvacr::core
