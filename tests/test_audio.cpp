// Tests for the audio fingerprinting pipeline: PCM synthesis, the Goertzel
// filter bank, landmark hashing, and audio-only content identification.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "fp/audio.hpp"
#include "fp/library.hpp"

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

// --------------------------------------------------------------- landmarks

TEST(AudioFingerprintTest, LandmarksAreSparseOnsetPairs) {
    // 90 s of broadcast audio: scene changes every ~3.5 s, but only changes
    // of the *stable strongest band* become onsets, so landmarks are sparse.
    const auto pcm = synthesize_audio(broadcast_stream(13), SimTime{}, SimTime::seconds(90));
    const auto fingerprint = audio_fingerprint(pcm);
    EXPECT_GT(fingerprint.entries.size(), 6U);
    EXPECT_LT(fingerprint.entries.size(), 250U);  // sparse, not per-window
    for (const auto& entry : fingerprint.entries) {
        EXPECT_GE(entry.hash & 0xFF, 1U);            // inter-onset delta >= 1 window
        EXPECT_LT(entry.hash >> 17, 8U);             // band fields in range
    }
}

TEST(AudioFingerprintTest, PeakSequenceMatchesStreamAnalysis) {
    const auto stream = broadcast_stream(14);
    const auto direct = analyze_peaks(stream, SimTime::seconds(5), SimTime::seconds(12));
    const auto via_pcm = analyze_peaks(
        synthesize_audio(stream, SimTime::seconds(5), SimTime::seconds(12)));
    // Segmented analysis equals whole-chunk analysis (window-aligned).
    EXPECT_EQ(direct.strongest, via_pcm.strongest);
    EXPECT_EQ(direct.second, via_pcm.second);
}

TEST(AudioFingerprintTest, TooShortPcmYieldsNothing) {
    PcmChunk tiny;
    tiny.samples.assign(100, 0.1F);
    EXPECT_TRUE(audio_fingerprint(tiny).entries.empty());
}

TEST(AudioFingerprintTest, DeterministicForSameAudio) {
    const auto pcm = synthesize_audio(broadcast_stream(15), SimTime::seconds(2),
                                      SimTime::seconds(3));
    const auto a = audio_fingerprint(pcm);
    const auto b = audio_fingerprint(pcm);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].hash, b.entries[i].hash);
    }
}

// ---------------------------------------------------------- audio matching

struct AudioMatchFixture : ::testing::Test {
    std::vector<ContentInfo> catalog = builtin_catalog(808);
    AudioMatchServer server;

    void SetUp() override {
        // Index a few catalog entries (full indexing is exercised once;
        // keep the fixture fast).
        for (std::size_t i = 0; i < 4; ++i) {
            ContentInfo trimmed = catalog[i];
            trimmed.duration = SimTime::minutes(5);
            server.add_reference(trimmed);
        }
    }
};

TEST_F(AudioMatchFixture, IdentifiesContentAndOffsetFromAudioAlone) {
    const ContentStream stream(catalog[1].seed, catalog[1].dynamics);
    const SimTime true_offset = SimTime::seconds(90);
    const PcmChunk probe = synthesize_audio(stream, true_offset, SimTime::seconds(25));
    const auto match = server.match(audio_fingerprint(probe));
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->content_id, catalog[1].id);
    const auto error = match->content_offset - true_offset;
    EXPECT_LE(std::abs(error.as_micros()), SimTime::seconds(10).as_micros());
    EXPECT_GE(match->hits, 4);
}

TEST_F(AudioMatchFixture, RejectsUnindexedContent) {
    const ContentStream stream(999999, ContentDynamics::for_kind(ContentKind::kLiveBroadcast));
    const PcmChunk probe = synthesize_audio(stream, SimTime::seconds(30), SimTime::seconds(25));
    EXPECT_FALSE(server.match(audio_fingerprint(probe)).has_value());
}

TEST_F(AudioMatchFixture, EmptyProbeDoesNotMatch) {
    EXPECT_FALSE(server.match(AudioFingerprint{}).has_value());
}

TEST_F(AudioMatchFixture, IndexIsPopulated) {
    EXPECT_GT(server.indexed_landmarks(), 200U);
}

}  // namespace
}  // namespace tvacr::fp
