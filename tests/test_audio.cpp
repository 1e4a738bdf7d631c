// Tests for the audio half of fingerprinting: PCM synthesis and the
// Goertzel filter bank, pinned to a one-band-at-a-time oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "fp/audio.hpp"

namespace tvacr::fp {
namespace {

ContentStream broadcast_stream(std::uint64_t seed) {
    return ContentStream(seed, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
}

// --------------------------------------------------------------- synthesis

TEST(AudioSynthesisTest, ProducesRequestedDuration) {
    const auto stream = broadcast_stream(1);
    const PcmChunk pcm = synthesize_audio(stream, SimTime{}, SimTime::seconds(2));
    EXPECT_EQ(pcm.samples.size(), 2U * PcmChunk::kSampleRate);
    EXPECT_EQ(pcm.duration(), SimTime::seconds(2));
}

TEST(AudioSynthesisTest, DeterministicAndSeedSensitive) {
    const auto a = synthesize_audio(broadcast_stream(1), SimTime::seconds(3), SimTime::millis(500));
    const auto b = synthesize_audio(broadcast_stream(1), SimTime::seconds(3), SimTime::millis(500));
    const auto c = synthesize_audio(broadcast_stream(2), SimTime::seconds(3), SimTime::millis(500));
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_NE(a.samples, c.samples);
}

TEST(AudioSynthesisTest, BoundedAmplitude) {
    const auto pcm = synthesize_audio(broadcast_stream(5), SimTime{}, SimTime::seconds(1));
    for (const float sample : pcm.samples) {
        EXPECT_LE(std::abs(sample), 1.0F);
    }
}

// ---------------------------------------------------------------- goertzel

/// Goertzel energy of `samples` at frequency `hz`, one band at a time: the
/// reference that analyze_window's one-pass bank matches bit for bit.
double goertzel(std::span<const float> samples, double hz, int sample_rate) {
    const double omega = 2.0 * std::numbers::pi * hz / sample_rate;
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

TEST(GoertzelTest, DetectsPureTone) {
    constexpr int kRate = 16000;
    std::vector<float> tone(1600);
    for (std::size_t i = 0; i < tone.size(); ++i) {
        tone[i] = std::sin(2.0F * 3.14159265F * 990.0F * static_cast<float>(i) / kRate);
    }
    const double at_tone = goertzel(tone, 990.0, kRate);
    const double off_tone = goertzel(tone, 2860.0, kRate);
    EXPECT_GT(at_tone, 100.0 * off_tone);
}

TEST(GoertzelTest, SilenceIsZeroEnergy) {
    const std::vector<float> silence(1600, 0.0F);
    EXPECT_DOUBLE_EQ(goertzel(silence, 990.0, 16000), 0.0);
}

TEST(AnalyzeWindowTest, NormalizedToStrongestBand) {
    const auto pcm = synthesize_audio(broadcast_stream(7), SimTime::seconds(1),
                                      SimTime::millis(100));
    const AudioWindow window = analyze_window(pcm.samples);
    float peak = 0.0F;
    for (const float e : window.band_energy) {
        EXPECT_GE(e, 0.0F);
        EXPECT_LE(e, 1.0F);
        peak = std::max(peak, e);
    }
    EXPECT_FLOAT_EQ(peak, 1.0F);
}

TEST(AnalyzeWindowTest, DifferentScenesDifferentSpectra) {
    const auto stream = broadcast_stream(9);
    // Find two distinct scenes.
    const std::size_t first = stream.scene_index_at(SimTime::seconds(1));
    SimTime later = SimTime::seconds(40);
    ASSERT_NE(stream.scene_index_at(later), first);
    const auto a = stream.audio_at(SimTime::seconds(1));
    const auto b = stream.audio_at(later);
    bool differs = false;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        if (std::abs(a.band_energy[band] - b.band_energy[band]) > 0.05F) differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(AnalyzeWindowTest, StableWithinScene) {
    const auto stream = broadcast_stream(11);
    const SimTime t = SimTime::millis(1200);
    const std::size_t scene = stream.scene_index_at(t);
    const SimTime later = t + SimTime::millis(40);
    if (stream.scene_index_at(later) == scene) {
        const auto a = stream.audio_at(t);
        const auto b = stream.audio_at(later);
        for (int band = 0; band < AudioWindow::kBands; ++band) {
            EXPECT_FLOAT_EQ(a.band_energy[band], b.band_energy[band]);
        }
    }
}

/// The filter bank one band at a time through goertzel(): the oracle for
/// analyze_window's one-pass bank.
AudioWindow reference_window(std::span<const float> samples) {
    const auto& bands = band_frequencies();
    double energies[AudioWindow::kBands];
    double peak = 1e-12;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        energies[band] = goertzel(samples, bands[static_cast<std::size_t>(band)],
                                  PcmChunk::kSampleRate);
        peak = std::max(peak, energies[band]);
    }
    AudioWindow window;
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        window.band_energy[band] = static_cast<float>(energies[band] / peak);
    }
    return window;
}

void expect_bit_equal_to_reference(std::span<const float> samples, const char* what) {
    const AudioWindow got = analyze_window(samples);
    const AudioWindow want = reference_window(samples);
    for (int band = 0; band < AudioWindow::kBands; ++band) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got.band_energy[band]),
                  std::bit_cast<std::uint32_t>(want.band_energy[band]))
            << what << " band " << band;
    }
}

TEST(AnalyzeWindowTest, OnePassBankIsBitEqualToPerBandGoertzel) {
    for (const ContentKind kind : {ContentKind::kLiveBroadcast, ContentKind::kHdmiDesktop,
                                   ContentKind::kAdvertisement}) {
        for (const std::uint64_t seed : {1ULL, 42ULL, 2024ULL}) {
            const ContentStream stream(seed, ContentDynamics::for_kind(kind));
            for (std::size_t scene = 0; scene < 40; ++scene) {
                // The client's onset-aligned window, then one straddling
                // the next scene boundary.
                const SimTime start = stream.scene_start(scene);
                const PcmChunk onset = synthesize_audio(stream, start, SimTime::millis(100));
                expect_bit_equal_to_reference(onset.samples, "onset window");
                const PcmChunk straddle = synthesize_audio(
                    stream, stream.scene_start(scene + 1) - SimTime::millis(50),
                    SimTime::millis(100));
                expect_bit_equal_to_reference(straddle.samples, "straddling window");
            }
        }
    }
}

TEST(AnalyzeWindowTest, OnePassBankIsBitEqualOnSilenceAndTones) {
    const std::vector<float> silence(1600, 0.0F);
    expect_bit_equal_to_reference(silence, "silence");
    expect_bit_equal_to_reference({}, "empty window");
    for (const double hz : {200.0, 990.0, 3000.0, 7000.0}) {
        std::vector<float> tone(1601);
        for (std::size_t i = 0; i < tone.size(); ++i) {
            tone[i] = static_cast<float>(
                0.8 * std::sin(2.0 * 3.14159265358979323846 * hz * static_cast<double>(i) /
                               PcmChunk::kSampleRate));
        }
        expect_bit_equal_to_reference(tone, "pure tone");
    }
}

}  // namespace
}  // namespace tvacr::fp
