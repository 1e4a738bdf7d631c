// Experiment execution, following the paper's workflow (§3.2, Figure 3):
// start traffic capture -> smart-plug power-on (boot DNS burst) -> run the
// scenario for the experiment duration -> power off -> stop capture. Phases
// set login and privacy state before power-on, exactly as the automation
// configured the TVs between runs.
#pragma once

#include <string>
#include <vector>

#include "analysis/traffic.hpp"
#include "core/testbed.hpp"
#include "obs/scope.hpp"
#include "tv/scenario.hpp"

namespace tvacr::core {

struct ExperimentSpec {
    tv::Brand brand = tv::Brand::kSamsung;
    tv::Country country = tv::Country::kUk;
    tv::Scenario scenario = tv::Scenario::kIdle;
    tv::Phase phase = tv::Phase::kLInOIn;
    SimTime duration = SimTime::hours(1);
    std::uint64_t seed = 42;
    /// Record sim-time trace spans (DNS, TCP, ACR) during the run. Off by
    /// default: counters are always collected, spans only on request.
    bool trace = false;
    /// Network impairment scenario for the testbed's Wi-Fi link. Not part of
    /// name(), so impaired runs of a cell overwrite the same artifact slots
    /// as clean runs rather than multiplying the output tree.
    fault::FaultSpec faults;

    [[nodiscard]] std::string name() const;
};

struct ExperimentResult {
    ExperimentSpec spec;
    net::Ipv4Address device_ip;
    std::vector<net::Packet> capture;

    // Device/backend counters at experiment end (validation-script data).
    std::uint64_t batches_uploaded = 0;
    std::uint64_t captures_taken = 0;
    std::uint64_t backend_matches = 0;
    std::uint64_t backend_batches = 0;

    /// Ground-truth ACR domain names for this brand/country (with rotation),
    /// for evaluating the identifier against what the device really used.
    std::vector<std::string> true_acr_domains;

    /// The cell's deterministic metrics (dns.*, tcp.*, acr.*, ap.*, cloud.*,
    /// plus the backend's acr.backend.* counters folded in at experiment
    /// end). Byte-identical across runs and worker counts.
    obs::Registry metrics;
    /// Sim-time trace spans; empty unless spec.trace was set.
    std::vector<obs::TraceEvent> trace_events;

    /// Builds the per-domain analysis of this capture.
    [[nodiscard]] analysis::CaptureAnalyzer analyze() const;

    /// Persists the capture as a .tvcr record (events mode by
    /// default; keep_frames for a lossless pcap round-trip). Replaying the
    /// file reproduces analyze()'s result byte-for-byte.
    [[nodiscard]] Status record_tvcr(const std::string& path, bool keep_frames = false) const;
};

/// One experiment analyzed at the capture tap: the run's counters, metrics
/// and trace with an empty capture, and the analysis of every tapped frame.
struct AnalyzedExperiment {
    ExperimentResult result;
    analysis::CaptureAnalyzer analysis;
};

class ExperimentRunner {
  public:
    /// Runs one experiment on a fresh testbed.
    [[nodiscard]] static ExperimentResult run(const ExperimentSpec& spec);

    /// run() for callers that only analyze the cell: the same workflow
    /// (run_on), with the bed's tap feeding the streaming analyzer instead
    /// of the frame store (Testbed::analyze_at_tap), so no frame is kept.
    /// `analysis` equals run(spec).analyze().
    [[nodiscard]] static AnalyzedExperiment run_analyzed(const ExperimentSpec& spec);

    /// Builds the testbed configuration an experiment would use (exposed so
    /// callers that need the live testbed afterwards — e.g. the audit
    /// pipeline's geolocation stage — can construct the bed themselves).
    [[nodiscard]] static TestbedConfig testbed_config(const ExperimentSpec& spec);

    /// Runs the capture workflow on an existing testbed. The bed's TV is
    /// configured for the spec's phase/scenario, power-cycled for the
    /// duration, and the capture is moved into the result.
    [[nodiscard]] static ExperimentResult run_on(Testbed& bed, const ExperimentSpec& spec);
};

}  // namespace tvacr::core
