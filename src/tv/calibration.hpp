// Traffic calibration: the per-brand ACR schedules and payload-size
// constants, each anchored to an observation in the paper.
//
// The *mechanisms* (batching, RLE, matching, per-scenario gating) are real;
// these constants size the envelopes and reports so that 1-hour totals land
// near the paper's Tables 2-5. EXPERIMENTS.md records paper-vs-measured for
// every cell.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "fp/batch.hpp"
#include "tv/privacy.hpp"
#include "tv/scenario.hpp"

namespace tvacr::tv {

/// Operating mode of the fingerprint channel for a scenario.
enum class AcrMode {
    kOff,         // channel never opened (e.g. Samsung US idle/OTT/cast)
    kSuppressed,  // channel open, status heartbeats only, no fingerprints
    kProbe,       // occasional small probe fingerprints (Samsung UK cast)
    kActive,      // full fingerprinting
};

[[nodiscard]] std::string to_string(AcrMode mode);

/// Scenario -> fingerprint-channel mode, encoding the paper's findings:
/// Linear & HDMI always fingerprint; UK FAST/OTT are suppressed while US
/// FAST fingerprints (§4.3); Samsung's US client keeps the channel closed in
/// idle/OTT/cast (Tables 4-5 show '-').
[[nodiscard]] AcrMode acr_mode_for(Brand brand, Country country, Scenario scenario);

/// Capture/upload cadence per brand (paper §4.1: LG captures every 10 ms and
/// uploads every 15 s with one-minute peaks; Samsung captures every 500 ms
/// and uploads every minute with ~5-minute peaks).
struct AcrSchedule {
    SimTime capture_period;
    SimTime upload_period;
    int uploads_per_peak;  // every Nth upload carries the peak report
    bool has_audio;
    fp::BatchEncoding encoding;
};

[[nodiscard]] AcrSchedule acr_schedule(Brand brand);

/// Payload-size calibration for one (brand, country).
struct AcrCalibration {
    // -- Active mode ---------------------------------------------------------
    /// Envelope uploaded with each batch when the previous upload was
    /// recognized (playback context, EPG hints). Anchors: Samsung UK Antenna
    /// 440.9 KB/h vs HDMI 204.8 KB/h (Table 2) — unrecognized content ships
    /// a minimal envelope.
    std::size_t envelope_recognized = 0;
    std::size_t envelope_unrecognized = 0;
    /// Server response plaintext (match result + ad-sync when recognized).
    std::size_t response_recognized = 0;
    std::size_t response_unrecognized = 0;
    /// Peak report: viewership events for content recognized since the last
    /// peak. Anchors: LG Antenna 4759.7 vs HDMI 4296.5 KB/h (Table 2) — the
    /// gap is recognition-driven reporting, batches themselves are constant.
    std::size_t peak_report_base = 0;
    std::size_t peak_report_per_match = 0;

    // -- Suppressed mode ------------------------------------------------------
    SimTime heartbeat_period;
    std::size_t heartbeat_size = 0;
    std::size_t heartbeat_response = 0;
    int heartbeats_per_peak = 0;  // 0 = no suppressed-mode peaks
    std::size_t suppressed_peak_size = 0;

    // -- Probe mode -----------------------------------------------------------
    SimTime probe_period;
    std::size_t probe_size = 0;
    std::size_t probe_response = 0;

    // -- Keep-alive channel (acr0.samsungcloudsolution.com, UK only) ----------
    SimTime keepalive_period;
    std::size_t keepalive_size = 0;
    std::size_t keepalive_response = 0;

    // -- log-config channel ----------------------------------------------------
    std::size_t config_request = 0;
    std::size_t config_response = 0;

    // -- log-ingestion channel --------------------------------------------------
    SimTime ingestion_period;
    std::size_t ingestion_base = 0;
    /// Extra event bytes per upload while the fingerprint channel is Active
    /// (channel-change and recognition events). Anchor: log-ingestion-eu
    /// Antenna 298.4 vs FAST 125.4 KB/h (Table 2).
    std::size_t ingestion_active_extra = 0;
};

[[nodiscard]] AcrCalibration acr_calibration(Brand brand, Country country);

/// TLS certificate-flight size per operator (Samsung's chains are larger
/// than Alphonso's; affects the per-connection fixed cost).
[[nodiscard]] std::size_t tls_server_flight(Brand brand);

}  // namespace tvacr::tv
