// The on-TV ACR client.
//
// Implements the capture -> batch -> upload pipeline (Figure 1) with the
// per-brand cadences the paper inferred from traffic timing, the
// scenario-dependent gating (Active/Suppressed/Probe/Off), the peak reports
// that make Linear/HDMI the loudest scenarios, and the auxiliary Samsung
// channels (keep-alive, log-config, log-ingestion). Opting out of viewing
// information means this client is simply never started — reproducing the
// paper's "complete absence of communication with any ACR domains".
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fp/content.hpp"
#include "sim/dns_client.hpp"
#include "sim/tcp.hpp"
#include "sim/tls.hpp"
#include "tv/acr_backend.hpp"
#include "tv/calibration.hpp"
#include "tv/platform.hpp"

namespace tvacr::tv {

/// What the ACR client reads when it grabs the panel output: the frame's
/// dhash and frame_detail, and the audio window only when asked for it (its
/// schedule uploads audio); otherwise `audio` is left zero.
struct ScreenCapture {
    fp::FrameFingerprint fingerprint;
    fp::AudioWindow audio;
};

class AcrClient {
  public:
    /// Supplies the current panel content at a time, with or without its
    /// audio window; nullopt when the screen shows nothing fingerprintable
    /// (should not happen while the TV is on).
    using ScreenProvider = std::function<std::optional<ScreenCapture>(SimTime, bool with_audio)>;

    struct Wiring {
        sim::Simulator& simulator;
        sim::Station& station;
        sim::Cloud& cloud;
        sim::DnsClient& resolver;
        AcrBackend& backend;
    };

    AcrClient(Wiring wiring, Brand brand, Country country, std::uint64_t device_id,
              std::uint64_t seed, int domain_rotation);
    ~AcrClient();

    AcrClient(const AcrClient&) = delete;
    AcrClient& operator=(const AcrClient&) = delete;

    /// Boots the client in the given mode. Resolves the platform's ACR
    /// domains, opens the channels the mode requires, and starts the
    /// schedules. No-op if already started.
    void start(ScreenProvider screen, AcrMode mode);

    /// Halts all schedules and forgets sessions (power-off or opt-out).
    void stop();

    [[nodiscard]] bool running() const noexcept { return running_; }
    [[nodiscard]] AcrMode mode() const noexcept { return mode_; }

    /// ACR domain names this client would contact in its current country
    /// (with the rotation applied) — what the boot DNS burst resolves.
    [[nodiscard]] std::vector<std::string> domain_names() const;

    // Counters for tests/reports.
    [[nodiscard]] std::uint64_t batches_uploaded() const noexcept { return batches_uploaded_; }
    [[nodiscard]] std::uint64_t captures_taken() const noexcept { return captures_taken_; }
    [[nodiscard]] std::uint64_t recognitions() const noexcept { return recognitions_; }
    [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept { return heartbeats_sent_; }
    /// Fingerprint records that were held back locally because an upload tick
    /// found the link down (the paper's disruption-resilience behaviour:
    /// nothing is lost, the backlog flushes in one batch on reconnect).
    [[nodiscard]] std::uint64_t queued_fingerprints() const noexcept {
        return queued_fingerprints_;
    }

  private:
    struct Channel {
        AcrDomain domain;
        std::string resolved_name;
        std::optional<net::Endpoint> endpoint;
        std::unique_ptr<sim::TlsSession> tls;
        std::unique_ptr<sim::TcpConnection> tcp;  // keep-alive is plain TCP
    };

    void open_channel(Channel& channel, std::function<void()> on_ready);
    void send_on(Channel& channel, AcrMessageType type, Bytes body,
                 std::function<void(Bytes)> on_response);

    void start_fingerprint_schedule(Channel& channel);
    /// One capture tick: reads the screen and appends a record to the batch.
    void take_capture();
    void schedule_upload(Channel& channel);
    void schedule_heartbeat(Channel& channel);
    void schedule_probe(Channel& channel);
    void start_keepalive_schedule(Channel& channel);
    void fetch_config(Channel& channel);
    void start_ingestion_schedule(Channel& channel);

    [[nodiscard]] Bytes padding(std::size_t size);
    /// Whether the Wi-Fi link is currently usable (no scheduled outage).
    [[nodiscard]] bool link_up() const;

    Wiring wiring_;
    Brand brand_;
    Country country_;
    std::uint64_t device_id_;
    Rng rng_;
    int rotation_;
    PlatformProfile profile_;
    AcrSchedule schedule_;
    AcrCalibration calibration_;

    bool running_ = false;
    AcrMode mode_ = AcrMode::kOff;
    ScreenProvider screen_;
    std::vector<std::unique_ptr<Channel>> channels_;
    sim::Simulator::TimerId capture_timer_ = 0;  // 0: none armed

    // Capture accumulation for the active fingerprint channel.
    std::vector<fp::CaptureRecord> pending_records_;
    SimTime batch_start_;
    bool last_response_recognized_ = false;
    int uploads_since_peak_ = 0;
    int recognized_since_peak_ = 0;
    int heartbeats_since_peak_ = 0;

    std::uint64_t batches_uploaded_ = 0;
    std::uint64_t captures_taken_ = 0;
    std::uint64_t recognitions_ = 0;
    std::uint64_t heartbeats_sent_ = 0;
    std::uint64_t queued_fingerprints_ = 0;
    std::size_t queued_marked_ = 0;  // pending records already counted as queued

    obs::Registry::Counter m_captures_;
    obs::Registry::Counter m_batches_;
    obs::Registry::Counter m_bytes_up_;
    obs::Registry::Counter m_heartbeats_;
    obs::Registry::Counter m_probes_;
    obs::Registry::Counter m_recognitions_;
    obs::Registry::Counter m_peak_reports_;
    obs::Registry::Counter m_queued_fp_;

    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace tvacr::tv
