#include "fp/audio.hpp"

#include <algorithm>
#include <cmath>

namespace tvacr::fp {

namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

/// Partial frequencies for a scene: 4 tones drawn from the band range so
/// the filter bank sees distinctive energy patterns per scene.
std::array<double, 4> scene_partials(std::uint64_t seed, std::size_t scene) {
    const std::uint64_t scene_seed = splitmix64(seed ^ (scene * 0x9E3779B97F4A7C15ULL) ^ 0xA0D);
    std::array<double, 4> partials{};
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const std::uint64_t h = splitmix64(scene_seed ^ i);
        // 150 Hz .. 4 kHz, log-distributed.
        const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
        partials[i] = 150.0 * std::pow(4000.0 / 150.0, unit);
    }
    return partials;
}

}  // namespace

const std::array<double, AudioWindow::kBands>& band_frequencies() {
    static const std::array<double, AudioWindow::kBands> kBandsHz = {
        200.0, 340.0, 580.0, 990.0, 1680.0, 2860.0, 4870.0, 7000.0};
    return kBandsHz;
}

PcmChunk synthesize_audio(const ContentStream& stream, SimTime t, SimTime duration) {
    PcmChunk pcm;
    const auto count = static_cast<std::size_t>(duration.as_micros() * PcmChunk::kSampleRate /
                                                1'000'000);
    pcm.samples.resize(count);

    std::size_t i = 0;
    while (i < count) {
        // Generate run of samples within the current scene.
        const SimTime now =
            t + SimTime::micros(static_cast<std::int64_t>(i) * 1'000'000 / PcmChunk::kSampleRate);
        const std::size_t scene = stream.scene_index_at(now);
        const auto partials = scene_partials(stream.seed(), scene);

        // How many samples until the scene could change: re-check every 10 ms.
        const std::size_t burst =
            std::min<std::size_t>(count - i, PcmChunk::kSampleRate / 100);

        // Phase-exact sinusoid synthesis via the recurrence
        // s[n] = 2cos(w) s[n-1] - s[n-2]: one multiply per partial per
        // sample instead of a libm sin() call (this runs for every indexed
        // reference second, so it is a hot path).
        const double t0_s =
            (t.as_micros() / 1e6) + static_cast<double>(i) / PcmChunk::kSampleRate;
        double coeff[4];
        double s1[4];  // s[n-1]
        double s2[4];  // s[n-2]
        for (std::size_t p = 0; p < partials.size(); ++p) {
            const double omega = kTwoPi * partials[p] / PcmChunk::kSampleRate;
            coeff[p] = 2.0 * std::cos(omega);
            s1[p] = std::sin(kTwoPi * partials[p] * t0_s - omega);       // s[-1]
            s2[p] = std::sin(kTwoPi * partials[p] * t0_s - 2.0 * omega); // s[-2]
        }
        for (std::size_t k = 0; k < burst; ++k, ++i) {
            double sample = 0.0;
            double amplitude = 0.5;
            for (std::size_t p = 0; p < partials.size(); ++p) {
                const double value = coeff[p] * s1[p] - s2[p];
                s2[p] = s1[p];
                s1[p] = value;
                sample += amplitude * value;
                amplitude *= 0.6;
            }
            pcm.samples[i] = static_cast<float>(sample * 0.4);
        }
    }
    return pcm;
}

double goertzel(std::span<const float> samples, double hz, int sample_rate) {
    const double omega = kTwoPi * hz / sample_rate;
    const double coefficient = 2.0 * std::cos(omega);
    double s_prev = 0.0;
    double s_prev2 = 0.0;
    for (const float sample : samples) {
        const double s = sample + coefficient * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    const double power =
        s_prev * s_prev + s_prev2 * s_prev2 - coefficient * s_prev * s_prev2;
    return std::max(0.0, power) / std::max<std::size_t>(samples.size(), 1);
}

AudioWindow analyze_window(std::span<const float> samples) {
    // goertzel() for all bands in one pass over the window. Each band runs
    // the same operations in the same order as the single-band reference,
    // and the build contracts no multiply-adds, so energies are bit-equal.
    constexpr int kBands = AudioWindow::kBands;
    const auto& bands = band_frequencies();
    double coefficient[kBands];
    double s_prev[kBands] = {};
    double s_prev2[kBands] = {};
    for (int band = 0; band < kBands; ++band) {
        const double omega =
            kTwoPi * bands[static_cast<std::size_t>(band)] / PcmChunk::kSampleRate;
        coefficient[band] = 2.0 * std::cos(omega);
    }
    for (const float sample : samples) {
        for (int band = 0; band < kBands; ++band) {
            const double s = sample + coefficient[band] * s_prev[band] - s_prev2[band];
            s_prev2[band] = s_prev[band];
            s_prev[band] = s;
        }
    }
    double peak = 1e-12;
    double energies[kBands];
    for (int band = 0; band < kBands; ++band) {
        const double power = s_prev[band] * s_prev[band] + s_prev2[band] * s_prev2[band] -
                             coefficient[band] * s_prev[band] * s_prev2[band];
        energies[band] = std::max(0.0, power) / std::max<std::size_t>(samples.size(), 1);
        peak = std::max(peak, energies[band]);
    }
    AudioWindow window;
    for (int band = 0; band < kBands; ++band) {
        window.band_energy[band] = static_cast<float>(energies[band] / peak);
    }
    return window;
}

namespace {

struct WindowPeaks {
    int strongest = 0;
    int second = 1;
};

WindowPeaks peaks_of(const AudioWindow& window) {
    WindowPeaks peaks;
    if (window.band_energy[1] > window.band_energy[0]) {
        peaks.strongest = 1;
        peaks.second = 0;
    }
    for (int band = 2; band < AudioWindow::kBands; ++band) {
        if (window.band_energy[band] > window.band_energy[peaks.strongest]) {
            peaks.second = peaks.strongest;
            peaks.strongest = band;
        } else if (window.band_energy[band] > window.band_energy[peaks.second]) {
            peaks.second = band;
        }
    }
    return peaks;
}

}  // namespace

PeakSequence analyze_peaks(const PcmChunk& pcm, int window_ms) {
    PeakSequence sequence;
    const std::size_t window_samples =
        static_cast<std::size_t>(window_ms) * PcmChunk::kSampleRate / 1000;
    if (window_samples == 0) return sequence;
    for (std::size_t start = 0; start + window_samples <= pcm.samples.size();
         start += window_samples) {
        const WindowPeaks peaks = peaks_of(analyze_window(
            std::span<const float>(pcm.samples).subspan(start, window_samples)));
        sequence.strongest.push_back(static_cast<std::uint8_t>(peaks.strongest));
        sequence.second.push_back(static_cast<std::uint8_t>(peaks.second));
    }
    return sequence;
}

PeakSequence analyze_peaks(const ContentStream& stream, SimTime from, SimTime duration,
                           int window_ms) {
    // Synthesize in bounded segments so hour-long references never hold the
    // whole PCM in memory; segment lengths are window-aligned.
    PeakSequence sequence;
    const SimTime segment = SimTime::seconds(10);
    SimTime done;
    while (done < duration) {
        const SimTime chunk = std::min(segment, duration - done);
        const PcmChunk pcm = synthesize_audio(stream, from + done, chunk);
        const PeakSequence part = analyze_peaks(pcm, window_ms);
        sequence.strongest.insert(sequence.strongest.end(), part.strongest.begin(),
                                  part.strongest.end());
        sequence.second.insert(sequence.second.end(), part.second.begin(), part.second.end());
        done += chunk;
    }
    return sequence;
}

AudioFingerprint landmarks_from_peaks(const PeakSequence& peaks, int max_pairs) {
    AudioFingerprint fingerprint;
    // Onset events: windows where the *strongest* band changes. The second
    // band flickers between near-equal bands window to window (spectral
    // leakage), so it must not define onsets; instead each event carries the
    // majority second-band over its segment, which is stable.
    struct Event {
        std::uint32_t window;
        std::uint8_t strongest;
        std::uint8_t second;
    };
    if (peaks.strongest.empty()) return fingerprint;

    // Debounce: near-equal partials make the raw strongest band flicker
    // between two values window-to-window, which would fragment segments
    // into degenerate, collision-prone landmarks. A band change only counts
    // once the new band has held for kPersist consecutive windows.
    constexpr std::size_t kPersist = 3;
    std::vector<std::uint8_t> stable(peaks.strongest.size());
    std::uint8_t current = peaks.strongest[0];
    for (std::size_t w = 0; w < peaks.strongest.size(); ++w) {
        if (peaks.strongest[w] != current) {
            std::size_t run = 1;
            while (w + run < peaks.strongest.size() && run < kPersist &&
                   peaks.strongest[w + run] == peaks.strongest[w]) {
                ++run;
            }
            if (run >= kPersist) current = peaks.strongest[w];
        }
        stable[w] = current;
    }

    std::vector<Event> events;
    std::size_t segment_start = 0;
    const auto close_segment = [&](std::size_t end) {
        if (end <= segment_start) return;
        int counts[AudioWindow::kBands] = {};
        for (std::size_t w = segment_start; w < end; ++w) counts[peaks.second[w]] += 1;
        int majority = 0;
        for (int band = 1; band < AudioWindow::kBands; ++band) {
            if (counts[band] > counts[majority]) majority = band;
        }
        events.push_back(Event{static_cast<std::uint32_t>(segment_start),
                               stable[segment_start],
                               static_cast<std::uint8_t>(majority)});
    };
    for (std::size_t w = 1; w <= stable.size(); ++w) {
        if (w == stable.size() || stable[w] != stable[w - 1]) {
            close_segment(w);
            segment_start = w;
        }
    }
    for (std::size_t anchor = 0; anchor < events.size(); ++anchor) {
        for (int pair = 1; pair <= max_pairs; ++pair) {
            const std::size_t target = anchor + static_cast<std::size_t>(pair);
            if (target >= events.size()) break;
            const std::uint32_t delta =
                std::min<std::uint32_t>(events[target].window - events[anchor].window, 0xFF);
            if (events[target].window - events[anchor].window < 5) continue;  // < 500 ms: noise
            const AudioLandmark hash = (static_cast<AudioLandmark>(events[anchor].strongest)
                                        << 17) |
                                       (static_cast<AudioLandmark>(events[anchor].second) << 14) |
                                       (static_cast<AudioLandmark>(events[target].strongest)
                                        << 11) |
                                       (static_cast<AudioLandmark>(events[target].second) << 8) |
                                       delta;
            fingerprint.entries.push_back({hash, events[anchor].window});
        }
    }
    return fingerprint;
}

AudioFingerprint audio_fingerprint(const PcmChunk& pcm, int window_ms) {
    return landmarks_from_peaks(analyze_peaks(pcm, window_ms));
}

void AudioMatchServer::add_reference(const ContentInfo& info) {
    const ContentStream stream(info.seed, info.dynamics);
    const PeakSequence peaks = analyze_peaks(stream, SimTime{}, info.duration);
    for (const auto& entry : landmarks_from_peaks(peaks).entries) {
        index_.emplace(entry.hash, Posting{info.id, entry.window});
        ++indexed_;
    }
}

std::optional<AudioMatchServer::Match> AudioMatchServer::match(
    const AudioFingerprint& probe) const {
    struct Key {
        std::uint64_t content;
        std::int64_t bucket;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const noexcept {
            return std::hash<std::uint64_t>{}(splitmix64(k.content) ^
                                              static_cast<std::uint64_t>(k.bucket));
        }
    };
    std::unordered_map<Key, int, KeyHash> votes;
    const std::int64_t tolerance_windows = options_.offset_tolerance.as_millis() / 100;

    for (const auto& entry : probe.entries) {
        const auto [begin, end] = index_.equal_range(entry.hash);
        for (auto it = begin; it != end; ++it) {
            const std::int64_t start_window =
                static_cast<std::int64_t>(it->second.window) -
                static_cast<std::int64_t>(entry.window);
            const std::int64_t bucket =
                (start_window + tolerance_windows / 2) / std::max<std::int64_t>(1, tolerance_windows);
            votes[Key{it->second.content_id, bucket}] += 1;
        }
    }
    const auto best = std::max_element(
        votes.begin(), votes.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (best == votes.end() || best->second < options_.min_hits) return std::nullopt;

    Match match;
    match.content_id = best->first.content;
    match.content_offset = SimTime::millis(
        std::max<std::int64_t>(0, best->first.bucket * tolerance_windows * 100));
    match.hits = best->second;
    return match;
}

}  // namespace tvacr::fp
