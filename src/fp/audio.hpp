// The audio half of ACR ("fingerprints of frames and/or audio", Figure 1).
//
// A real, if compact, audio identification pipeline in the Shazam lineage:
//   1. deterministic PCM synthesis per content scene (a chord of partials
//      whose frequencies derive from the scene seed);
//   2. a Goertzel filter bank measuring energy at log-spaced bands over
//      short analysis windows;
//   3. spectral-peak constellation hashing: the two strongest bands of a
//      window and the strongest band of a later window form a landmark
//      hash, robust to level changes and local dropouts;
//   4. an inverted-index matcher that identifies content and offset from a
//      sequence of landmark hashes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "fp/content.hpp"
#include "fp/frame.hpp"

namespace tvacr::fp {

/// Mono PCM at a fixed analysis rate.
struct PcmChunk {
    static constexpr int kSampleRate = 16000;
    std::vector<float> samples;

    [[nodiscard]] SimTime duration() const {
        return SimTime::micros(static_cast<std::int64_t>(samples.size()) * 1'000'000 /
                               kSampleRate);
    }
};

/// Centre frequencies of the 8-band filter bank (log-spaced, Hz).
[[nodiscard]] const std::array<double, AudioWindow::kBands>& band_frequencies();

/// Synthesizes `duration` of audio for a content stream starting at `t`.
/// Deterministic in (stream seed, scene schedule); scene changes change the
/// chord.
[[nodiscard]] PcmChunk synthesize_audio(const ContentStream& stream, SimTime t,
                                        SimTime duration);

/// Goertzel energy of `samples` at frequency `hz`: the single-band
/// reference that analyze_window's one-pass bank matches bit for bit.
[[nodiscard]] double goertzel(std::span<const float> samples, double hz, int sample_rate);

/// Runs the filter bank over one analysis window of PCM, all bands in one
/// pass.
[[nodiscard]] AudioWindow analyze_window(std::span<const float> samples);

/// Per-window dominant bands over a stretch of audio.
struct PeakSequence {
    std::vector<std::uint8_t> strongest;  // one per analysis window
    std::vector<std::uint8_t> second;
};

/// Filter-bank peaks for `duration` of a stream starting at `from`
/// (synthesized in bounded segments; windows of `window_ms`).
[[nodiscard]] PeakSequence analyze_peaks(const ContentStream& stream, SimTime from,
                                         SimTime duration, int window_ms = 100);
[[nodiscard]] PeakSequence analyze_peaks(const PcmChunk& pcm, int window_ms = 100);

/// Landmark hash built from a pair of onset *events* (windows where the
/// dominant bands change — in this content world, scene boundaries): the
/// two bands of each event plus their quantized time gap. Sparse and highly
/// discriminative, unlike per-window hashing which explodes on steady
/// audio.
using AudioLandmark = std::uint32_t;

struct AudioFingerprint {
    struct Entry {
        AudioLandmark hash;
        std::uint32_t window;  // anchor event's window index
    };
    std::vector<Entry> entries;
};

/// Builds landmarks from a peak sequence: each onset pairs with the next
/// `max_pairs` onsets.
[[nodiscard]] AudioFingerprint landmarks_from_peaks(const PeakSequence& peaks,
                                                    int max_pairs = 3);

/// Convenience: peaks + landmarks for one PCM chunk.
[[nodiscard]] AudioFingerprint audio_fingerprint(const PcmChunk& pcm, int window_ms = 100);

/// Content identification over audio landmarks.
class AudioMatchServer {
  public:
    struct Options {
        /// Minimum landmark hits agreeing on one (content, offset) bucket.
        int min_hits = 4;
        SimTime offset_tolerance = SimTime::seconds(5);
    };

    explicit AudioMatchServer(Options options) : options_(options) {}
    AudioMatchServer() : AudioMatchServer(Options{4, SimTime::seconds(5)}) {}

    /// Indexes a content's full audio track.
    void add_reference(const ContentInfo& info);

    struct Match {
        std::uint64_t content_id = 0;
        SimTime content_offset;
        int hits = 0;
    };
    [[nodiscard]] std::optional<Match> match(const AudioFingerprint& probe) const;

    [[nodiscard]] std::size_t indexed_landmarks() const noexcept { return indexed_; }

  private:
    struct Posting {
        std::uint64_t content_id;
        std::uint32_t window;
    };
    Options options_;
    std::unordered_multimap<AudioLandmark, Posting> index_;
    std::size_t indexed_ = 0;
};

}  // namespace tvacr::fp
