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
        // sample instead of a libm sin() call (this runs for each scene's
        // window that the client or a reference track reads, so it is a
        // hot path).
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

AudioWindow analyze_window(std::span<const float> samples) {
    // The Goertzel recurrence for all bands in one pass over the window.
    // Each band runs the same operations in the same order as a single-band
    // Goertzel (the oracle in tests/test_audio.cpp), and the build contracts
    // no multiply-adds, so energies are bit-equal to it.
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

}  // namespace tvacr::fp
