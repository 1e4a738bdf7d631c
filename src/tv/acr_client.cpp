#include "tv/acr_client.hpp"

#include "fp/video_fp.hpp"

namespace tvacr::tv {

namespace {

/// Guard helpers: run `fn` only while the owning client generation lives.
/// stop() ends the generation, so a firing that passes the guard belongs to
/// the running client and needs no other staleness check.
template <typename F>
auto guarded(const std::shared_ptr<bool>& alive, F fn) {
    return [alive = std::weak_ptr<bool>(alive), fn = std::move(fn)]() mutable {
        const auto lock = alive.lock();
        if (!lock || !*lock) return;
        fn();
    };
}

template <typename F>
auto guarded_arg(const std::shared_ptr<bool>& alive, F fn) {
    return [alive = std::weak_ptr<bool>(alive), fn = std::move(fn)](auto&& value) mutable {
        const auto lock = alive.lock();
        if (!lock || !*lock) return;
        fn(std::forward<decltype(value)>(value));
    };
}

}  // namespace

AcrClient::AcrClient(Wiring wiring, Brand brand, Country country, std::uint64_t device_id,
                     std::uint64_t seed, int domain_rotation)
    : wiring_(wiring),
      brand_(brand),
      country_(country),
      device_id_(device_id),
      rng_(derive_seed(seed, 0xAC11E47)),
      rotation_(domain_rotation),
      profile_(platform_profile(brand, country)),
      schedule_(acr_schedule(brand)),
      calibration_(acr_calibration(brand, country)),
      m_captures_(wiring.simulator.obs().metrics.counter("acr.captures")),
      m_batches_(wiring.simulator.obs().metrics.counter("acr.batches")),
      m_bytes_up_(wiring.simulator.obs().metrics.counter("acr.bytes_up")),
      m_heartbeats_(wiring.simulator.obs().metrics.counter("acr.heartbeats")),
      m_probes_(wiring.simulator.obs().metrics.counter("acr.probes")),
      m_recognitions_(wiring.simulator.obs().metrics.counter("acr.recognitions")),
      m_peak_reports_(wiring.simulator.obs().metrics.counter("acr.peak_reports")),
      m_queued_fp_(wiring.simulator.obs().metrics.counter("acr.queued_fingerprints")) {}

AcrClient::~AcrClient() { stop(); }

std::vector<std::string> AcrClient::domain_names() const {
    std::vector<std::string> names;
    for (const auto& domain : profile_.acr_domains) {
        names.push_back(domain.rotates ? rotated_name(domain.name, rotation_) : domain.name);
    }
    return names;
}

Bytes AcrClient::padding(std::size_t size) {
    Bytes out(size);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < size; ++i) {
        if (i % 8 == 0) word = rng_();
        out[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
    }
    return out;
}

bool AcrClient::link_up() const {
    const sim::AccessPoint* ap = wiring_.station.access_point();
    return ap == nullptr || ap->link_up();
}

void AcrClient::start(ScreenProvider screen, AcrMode mode) {
    if (running_) return;
    running_ = true;
    mode_ = mode;
    screen_ = std::move(screen);
    pending_records_.clear();
    queued_marked_ = 0;
    uploads_since_peak_ = 0;
    recognized_since_peak_ = 0;
    heartbeats_since_peak_ = 0;
    last_response_recognized_ = false;

    for (const auto& domain : profile_.acr_domains) {
        auto channel = std::make_unique<Channel>();
        channel->domain = domain;
        channel->resolved_name =
            domain.rotates ? rotated_name(domain.name, rotation_) : domain.name;
        Channel* raw = channel.get();
        channels_.push_back(std::move(channel));

        switch (domain.role) {
            case AcrDomainRole::kFingerprint:
                if (mode_ == AcrMode::kOff) break;  // channel never opened
                open_channel(*raw, guarded(alive_, [this, raw]() {
                                 start_fingerprint_schedule(*raw);
                             }));
                break;
            case AcrDomainRole::kKeepAlive:
                open_channel(*raw,
                             guarded(alive_, [this, raw]() { start_keepalive_schedule(*raw); }));
                break;
            case AcrDomainRole::kLogConfig:
                open_channel(*raw, guarded(alive_, [this, raw]() { fetch_config(*raw); }));
                break;
            case AcrDomainRole::kLogIngestion:
                open_channel(*raw,
                             guarded(alive_, [this, raw]() { start_ingestion_schedule(*raw); }));
                break;
        }
    }
}

void AcrClient::stop() {
    if (!running_) return;
    running_ = false;
    *alive_ = false;
    alive_ = std::make_shared<bool>(true);
    wiring_.simulator.cancel(capture_timer_);
    capture_timer_ = 0;
    channels_.clear();  // tears down TLS/TCP registrations
    screen_ = nullptr;
}

void AcrClient::open_channel(Channel& channel, std::function<void()> on_ready) {
    wiring_.resolver.resolve(
        channel.resolved_name,
        guarded_arg(alive_, [this, &channel, on_ready = std::move(on_ready)](
                                std::optional<net::Ipv4Address> address) mutable {
            if (!address) return;  // unresolvable endpoint: channel stays shut
            channel.endpoint = net::Endpoint{*address, 443};

            auto server_app = [this](BytesView plaintext) -> Bytes {
                return wiring_.backend.handle(plaintext);
            };
            if (channel.domain.role == AcrDomainRole::kKeepAlive) {
                // The keep-alive channel is a bare HTTP-style TCP connection.
                channel.tcp = std::make_unique<sim::TcpConnection>(
                    wiring_.simulator, wiring_.station, wiring_.cloud, *channel.endpoint,
                    [app = std::move(server_app)](BytesView request) { return app(request); });
                channel.tcp->connect(std::move(on_ready));
                return;
            }
            sim::TlsProfile tls_profile;
            tls_profile.server_flight = tls_server_flight(brand_);
            channel.tls = std::make_unique<sim::TlsSession>(
                wiring_.simulator, wiring_.station, wiring_.cloud, *channel.endpoint,
                std::move(server_app), derive_seed(device_id_, channel.endpoint->address.value()),
                tls_profile);
            channel.tls->open(std::move(on_ready));
        }));
}

void AcrClient::send_on(Channel& channel, AcrMessageType type, Bytes body,
                        std::function<void(Bytes)> on_response) {
    AcrRequest request;
    request.type = type;
    request.body = std::move(body);
    m_bytes_up_.add(request.body.size());
    if (channel.tls) {
        channel.tls->send(request.serialize(), std::move(on_response));
    } else if (channel.tcp) {
        channel.tcp->exchange(request.serialize(), std::move(on_response));
    }
}

void AcrClient::start_fingerprint_schedule(Channel& channel) {
    batch_start_ = wiring_.simulator.now();
    if (mode_ == AcrMode::kActive) {
        // One timer from here until stop() cancels it, so a tick
        // needs no liveness or mode check.
        const SimTime period = schedule_.capture_period;
        capture_timer_ = wiring_.simulator.every(wiring_.simulator.now() + period, period,
                                                 [this]() { take_capture(); });
        schedule_upload(channel);
    } else if (mode_ == AcrMode::kSuppressed) {
        schedule_heartbeat(channel);
    } else if (mode_ == AcrMode::kProbe) {
        schedule_probe(channel);
    }
}

void AcrClient::take_capture() {
    if (screen_) {
        const auto capture = screen_(wiring_.simulator.now(), schedule_.has_audio);
        if (capture) {
            fp::CaptureRecord record;
            record.offset_ms =
                static_cast<std::uint32_t>((wiring_.simulator.now() - batch_start_).as_millis());
            record.video = capture->fingerprint.video;
            record.detail = capture->fingerprint.detail;
            record.audio = schedule_.has_audio ? fp::audio_hash(capture->audio) : 0;
            pending_records_.push_back(record);
            ++captures_taken_;
            m_captures_.add();
        }
    }
}

void AcrClient::schedule_upload(Channel& channel) {
    // Small jitter so bursts are not metronome-exact on the wire.
    const SimTime jitter = SimTime::micros(rng_.uniform(0, 400'000));
    wiring_.simulator.after(
        schedule_.upload_period + jitter, guarded(alive_, [this, &channel]() {
            // Paper-faithful degradation: when an upload tick finds the link
            // inside an outage window, nothing is discarded — captures keep
            // accumulating locally and the whole backlog flushes as one
            // oversized batch at the first tick after reconnect.
            if (!link_up()) {
                if (pending_records_.size() > queued_marked_) {
                    const auto newly_queued = pending_records_.size() - queued_marked_;
                    queued_fingerprints_ += newly_queued;
                    m_queued_fp_.add(newly_queued);
                    queued_marked_ = pending_records_.size();
                }
                schedule_upload(channel);
                return;
            }
            queued_marked_ = 0;

            fp::FingerprintBatch batch;
            batch.device_id = device_id_;
            batch.start_ms = static_cast<std::uint64_t>(batch_start_.as_millis());
            batch.capture_period_ms =
                static_cast<std::uint16_t>(schedule_.capture_period.as_millis());
            batch.has_audio = schedule_.has_audio;
            batch.records = std::move(pending_records_);
            pending_records_.clear();
            const SimTime span_start = batch_start_;
            batch_start_ = wiring_.simulator.now();
            wiring_.simulator.obs().trace.span(
                "acr.batch", "acr", span_start, wiring_.simulator.now(), 3,
                {{"records", std::to_string(batch.records.size())}});

            Bytes body = batch.serialize(schedule_.encoding);
            const std::size_t envelope = last_response_recognized_
                                             ? calibration_.envelope_recognized
                                             : calibration_.envelope_unrecognized;
            const Bytes envelope_bytes = padding(envelope);
            body.insert(body.end(), envelope_bytes.begin(), envelope_bytes.end());

            send_on(channel, AcrMessageType::kFingerprintBatch, std::move(body),
                    guarded_arg(alive_, [this](Bytes response_wire) {
                        auto response = AcrResponse::deserialize(response_wire);
                        const bool recognized = response.ok() && response.value().recognized;
                        last_response_recognized_ = recognized;
                        if (recognized) {
                            ++recognitions_;
                            ++recognized_since_peak_;
                            m_recognitions_.add();
                        }
                    }));
            ++batches_uploaded_;
            m_batches_.add();

            // Peak report every Nth upload: viewership events for what was
            // recognized since the last peak.
            if (++uploads_since_peak_ >= schedule_.uploads_per_peak) {
                uploads_since_peak_ = 0;
                const std::size_t report_size =
                    calibration_.peak_report_base +
                    calibration_.peak_report_per_match *
                        static_cast<std::size_t>(recognized_since_peak_);
                recognized_since_peak_ = 0;
                if (report_size > 0) {
                    m_peak_reports_.add();
                    wiring_.simulator.obs().trace.instant(
                        "acr.peak_report", "acr", wiring_.simulator.now(), 3,
                        {{"bytes", std::to_string(report_size)}});
                    send_on(channel, AcrMessageType::kPeakReport, padding(report_size),
                            [](Bytes) {});
                }
            }
            schedule_upload(channel);
        }));
}

void AcrClient::schedule_heartbeat(Channel& channel) {
    const SimTime jitter = SimTime::micros(rng_.uniform(0, 300'000));
    wiring_.simulator.after(
        calibration_.heartbeat_period + jitter, guarded(alive_, [this, &channel]() {
            std::size_t size = calibration_.heartbeat_size;
            if (calibration_.heartbeats_per_peak > 0 &&
                ++heartbeats_since_peak_ >= calibration_.heartbeats_per_peak) {
                heartbeats_since_peak_ = 0;
                size = calibration_.suppressed_peak_size;
            }
            send_on(channel, AcrMessageType::kHeartbeat, padding(size), [](Bytes) {});
            ++heartbeats_sent_;
            m_heartbeats_.add();
            schedule_heartbeat(channel);
        }));
}

void AcrClient::schedule_probe(Channel& channel) {
    const SimTime jitter = SimTime::micros(rng_.uniform(0, 2'000'000));
    wiring_.simulator.after(
        calibration_.probe_period + jitter, guarded(alive_, [this, &channel]() {
            send_on(channel, AcrMessageType::kProbe, padding(calibration_.probe_size),
                    [](Bytes) {});
            m_probes_.add();
            schedule_probe(channel);
        }));
}

void AcrClient::start_keepalive_schedule(Channel& channel) {
    wiring_.simulator.after(
        calibration_.keepalive_period, guarded(alive_, [this, &channel]() {
            send_on(channel, AcrMessageType::kKeepAlive, padding(calibration_.keepalive_size),
                    [](Bytes) {});
            start_keepalive_schedule(channel);
        }));
}

void AcrClient::fetch_config(Channel& channel) {
    send_on(channel, AcrMessageType::kConfigFetch, padding(calibration_.config_request),
            [](Bytes) {});
}

void AcrClient::start_ingestion_schedule(Channel& channel) {
    const SimTime jitter = SimTime::micros(rng_.uniform(0, 800'000));
    wiring_.simulator.after(
        calibration_.ingestion_period + jitter, guarded(alive_, [this, &channel]() {
            // Recognition events (channel changes, content IDs) ride the
            // ingestion channel only when the backend is actually
            // recognizing content — unknown HDMI input produces none.
            const bool recognizing = mode_ == AcrMode::kActive && last_response_recognized_;
            const std::size_t size =
                calibration_.ingestion_base +
                (recognizing ? calibration_.ingestion_active_extra : 0);
            send_on(channel, AcrMessageType::kTelemetry, padding(size), [](Bytes) {});
            start_ingestion_schedule(channel);
        }));
}

}  // namespace tvacr::tv
