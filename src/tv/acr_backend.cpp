#include "tv/acr_backend.hpp"

namespace tvacr::tv {

Bytes AcrRequest::serialize() const {
    ByteWriter out(5 + body.size());
    out.u8(static_cast<std::uint8_t>(type));
    out.u32(static_cast<std::uint32_t>(body.size()));
    out.raw(body);
    return std::move(out).take();
}

Result<AcrRequest> AcrRequest::deserialize(BytesView wire) {
    ByteReader in(wire);
    auto type = in.u8();
    if (!type) return type.error();
    if (type.value() < 1 || type.value() > 7) return make_error("AcrRequest: unknown type");
    auto length = in.u32();
    if (!length) return length.error();
    auto body = in.raw(length.value());
    if (!body) return body.error();
    AcrRequest request;
    request.type = static_cast<AcrMessageType>(type.value());
    request.body = std::move(body).value();
    return request;
}

Bytes AcrResponse::serialize() const {
    ByteWriter out(17 + padding_size);
    out.u8(recognized ? 1 : 0);
    out.u64(content_id);
    out.u32(content_offset_s);
    out.u32(padding_size);
    out.fill(padding_size, 0xEE);
    return std::move(out).take();
}

Result<AcrResponse> AcrResponse::deserialize(BytesView wire) {
    ByteReader in(wire);
    auto recognized = in.u8();
    if (!recognized) return recognized.error();
    auto content_id = in.u64();
    if (!content_id) return content_id.error();
    auto offset = in.u32();
    if (!offset) return offset.error();
    auto padding = in.u32();
    if (!padding) return padding.error();
    if (in.remaining() < padding.value()) return make_error("AcrResponse: truncated padding");
    AcrResponse response;
    response.recognized = recognized.value() != 0;
    response.content_id = content_id.value();
    response.content_offset_s = offset.value();
    response.padding_size = padding.value();
    return response;
}

AcrBackend::AcrBackend(Brand brand, Country country, const fp::ContentLibrary& library)
    : brand_(brand),
      calibration_(acr_calibration(brand, country)),
      library_(library),
      profiler_(library) {}

Bytes AcrBackend::handle(BytesView request_wire) {
    auto request = AcrRequest::deserialize(request_wire);
    if (!request) {
        // Malformed input: a terse error body, as a production endpoint
        // would answer.
        AcrResponse response;
        response.padding_size = 32;
        return response.serialize();
    }

    switch (request.value().type) {
        case AcrMessageType::kFingerprintBatch: {
            ++batches_received_;
            AcrResponse response;
            auto batch = fp::FingerprintBatch::deserialize(request.value().body);
            if (batch.ok()) {
                if (!matcher_) matcher_.emplace(library_);
                const auto match = matcher_->match(batch.value());
                if (match) {
                    ++batches_matched_;
                    response.recognized = true;
                    response.content_id = match->content_id;
                    response.content_offset_s =
                        static_cast<std::uint32_t>(match->content_offset.as_micros() / 1'000'000);
                    const SimTime credited =
                        SimTime::millis(static_cast<std::int64_t>(batch.value().records.size()) *
                                        batch.value().capture_period_ms);
                    profiler_.record_match(batch.value().device_id, *match, credited);
                }
            }
            const std::size_t target = response.recognized
                                           ? calibration_.response_recognized
                                           : calibration_.response_unrecognized;
            response.padding_size =
                target > 17 ? static_cast<std::uint32_t>(target - 17) : 0;
            return response.serialize();
        }
        case AcrMessageType::kHeartbeat: {
            ++heartbeats_;
            AcrResponse response;
            response.padding_size =
                static_cast<std::uint32_t>(calibration_.heartbeat_response);
            return response.serialize();
        }
        case AcrMessageType::kProbe: {
            AcrResponse response;
            response.padding_size = static_cast<std::uint32_t>(calibration_.probe_response);
            return response.serialize();
        }
        case AcrMessageType::kPeakReport: {
            AcrResponse response;
            response.padding_size = 48;
            return response.serialize();
        }
        case AcrMessageType::kKeepAlive: {
            AcrResponse response;
            response.padding_size =
                static_cast<std::uint32_t>(calibration_.keepalive_response);
            return response.serialize();
        }
        case AcrMessageType::kConfigFetch: {
            AcrResponse response;
            response.padding_size = static_cast<std::uint32_t>(calibration_.config_response);
            return response.serialize();
        }
        case AcrMessageType::kTelemetry: {
            ++telemetry_events_;
            AcrResponse response;
            response.padding_size = 60;
            return response.serialize();
        }
    }
    return AcrResponse{}.serialize();
}

}  // namespace tvacr::tv
