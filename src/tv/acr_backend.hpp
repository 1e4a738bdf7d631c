// The ACR operator's backend — the "second party" of the title.
//
// One backend per operator (Alphonso for LG, Samsung Ads for Samsung). It
// terminates the fingerprint channel (match + profile + respond), the
// keep-alive/config/telemetry channels, and exposes the mini wire protocol
// the client speaks. Request/response sizes follow the calibration so the
// black-box capture reproduces the paper's byte counts.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "fp/matcher.hpp"
#include "fp/segments.hpp"
#include "tv/calibration.hpp"

namespace tvacr::tv {

enum class AcrMessageType : std::uint8_t {
    kFingerprintBatch = 1,
    kHeartbeat = 2,
    kProbe = 3,
    kPeakReport = 4,
    kKeepAlive = 5,
    kConfigFetch = 6,
    kTelemetry = 7,
};

/// Client->server message: a typed header followed by the body (a serialized
/// FingerprintBatch for kFingerprintBatch, opaque padding otherwise).
struct AcrRequest {
    AcrMessageType type = AcrMessageType::kHeartbeat;
    Bytes body;

    [[nodiscard]] Bytes serialize() const;
    [[nodiscard]] static Result<AcrRequest> deserialize(BytesView wire);
};

/// Server->client fingerprint-channel response: match verdict + padding to
/// the calibrated response size.
struct AcrResponse {
    bool recognized = false;
    std::uint64_t content_id = 0;
    std::uint32_t content_offset_s = 0;
    std::uint32_t padding_size = 0;

    [[nodiscard]] Bytes serialize() const;
    [[nodiscard]] static Result<AcrResponse> deserialize(BytesView wire);
};

class AcrBackend {
  public:
    AcrBackend(Brand brand, Country country, const fp::ContentLibrary& library);

    /// Handles one plaintext request on any ACR channel and produces the
    /// plaintext response (sizes per calibration).
    [[nodiscard]] Bytes handle(BytesView request_wire);

    [[nodiscard]] fp::AudienceProfiler& profiler() noexcept { return profiler_; }
    [[nodiscard]] const fp::AudienceProfiler& profiler() const noexcept { return profiler_; }

    // Counters for assertions and reports.
    [[nodiscard]] std::uint64_t batches_received() const noexcept { return batches_received_; }
    [[nodiscard]] std::uint64_t batches_matched() const noexcept { return batches_matched_; }
    [[nodiscard]] std::uint64_t heartbeats() const noexcept { return heartbeats_; }
    [[nodiscard]] std::uint64_t telemetry_events() const noexcept { return telemetry_events_; }

  private:
    Brand brand_;
    AcrCalibration calibration_;
    const fp::ContentLibrary& library_;
    // Built by the first decodable fingerprint batch: a TV that uploads
    // none never indexes the library.
    std::optional<fp::MatchServer> matcher_;
    fp::AudienceProfiler profiler_;
    std::uint64_t batches_received_ = 0;
    std::uint64_t batches_matched_ = 0;
    std::uint64_t heartbeats_ = 0;
    std::uint64_t telemetry_events_ = 0;
};

}  // namespace tvacr::tv
