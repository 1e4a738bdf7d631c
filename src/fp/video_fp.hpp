// Perceptual video hashing: the fingerprint half of the ACR pipeline.
//
// The 64-bit perceptual hash is dHash: horizontal gradient signs over a
// 9x8 downsample. It is robust to small luma perturbations: nearby frames
// land within a few bits of Hamming distance, which the match server
// tolerates.
#pragma once

#include <cstdint>

#include "fp/frame.hpp"

namespace tvacr::fp {

using VideoHash = std::uint64_t;

/// Mean-pools `frame` onto a grid of `gw` x `gh` cells.
[[nodiscard]] Frame downsample(const Frame& frame, int gw, int gh);

/// Difference hash: 64 bits of sign(left < right) over a 9x8 downsample.
[[nodiscard]] VideoHash dhash(const Frame& frame);

/// Hamming distance between two 64-bit hashes.
[[nodiscard]] int hamming(VideoHash a, VideoHash b) noexcept;

/// Fine-grained frame digest: a 16-bit fold over the exact pixel values.
/// Unlike the perceptual hash, ANY pixel change flips it — it identifies
/// literally-repeated frames (for run-length collapsing), not content.
[[nodiscard]] std::uint16_t frame_detail(const Frame& frame) noexcept;

/// Audio fingerprint: one 32-bit code per analysis window — the indices
/// of the two strongest bands and their coarse energy ratio.
[[nodiscard]] std::uint32_t audio_hash(const AudioWindow& window);

}  // namespace tvacr::fp
