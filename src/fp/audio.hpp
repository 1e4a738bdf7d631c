// The audio half of ACR ("fingerprints of frames and/or audio", Figure 1).
//
// What the TV hears and what its filter bank measures:
//   1. deterministic PCM synthesis per content scene (a chord of partials
//      whose frequencies derive from the scene seed);
//   2. a Goertzel filter bank measuring energy at log-spaced bands over
//      one short analysis window.
// The client reduces a window to one code with audio_hash (video_fp.hpp);
// the backend recomputes the same window for its audio check.
#pragma once

#include <array>
#include <cstdint>
#include <span>
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

/// Runs the filter bank over one analysis window of PCM, all bands in one
/// pass.
[[nodiscard]] AudioWindow analyze_window(std::span<const float> samples);

}  // namespace tvacr::fp
