#include "fp/video_fp.hpp"

#include <algorithm>
#include <bit>

namespace tvacr::fp {

Frame downsample(const Frame& frame, int gw, int gh) {
    Frame out = make_frame(gw, gh);
    for (int gy = 0; gy < gh; ++gy) {
        for (int gx = 0; gx < gw; ++gx) {
            // Cell [x0,x1) x [y0,y1) in source coordinates.
            const int x0 = gx * frame.width / gw;
            const int x1 = std::max((gx + 1) * frame.width / gw, x0 + 1);
            const int y0 = gy * frame.height / gh;
            const int y1 = std::max((gy + 1) * frame.height / gh, y0 + 1);
            int sum = 0;
            for (int y = y0; y < y1; ++y) {
                for (int x = x0; x < x1; ++x) sum += frame.at(x, y);
            }
            out.at(gx, gy) =
                static_cast<std::uint8_t>(sum / ((x1 - x0) * (y1 - y0)));
        }
    }
    return out;
}

VideoHash dhash(const Frame& frame) {
    const Frame grid = downsample(frame, 9, 8);
    VideoHash hash = 0;
    int bit = 0;
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            if (grid.at(x, y) < grid.at(x + 1, y)) hash |= (1ULL << bit);
            ++bit;
        }
    }
    return hash;
}

int hamming(VideoHash a, VideoHash b) noexcept { return std::popcount(a ^ b); }

std::uint16_t frame_detail(const Frame& frame) noexcept {
    // FNV-1a over the luma plane, folded to 16 bits.
    std::uint32_t h = 2166136261U;
    for (const std::uint8_t pixel : frame.luma) {
        h ^= pixel;
        h *= 16777619U;
    }
    return static_cast<std::uint16_t>(h ^ (h >> 16));
}

std::uint32_t audio_hash(const AudioWindow& window) {
    int best = 0;
    int second = 1;
    if (window.band_energy[second] > window.band_energy[best]) std::swap(best, second);
    for (int band = 2; band < AudioWindow::kBands; ++band) {
        if (window.band_energy[band] > window.band_energy[best]) {
            second = best;
            best = band;
        } else if (window.band_energy[band] > window.band_energy[second]) {
            second = band;
        }
    }
    const float strongest = std::max(window.band_energy[best], 1e-6F);
    const auto ratio = static_cast<std::uint32_t>(
        std::clamp(window.band_energy[second] / strongest, 0.0F, 1.0F) * 255.0F);
    return (static_cast<std::uint32_t>(best) << 24) | (static_cast<std::uint32_t>(second) << 16) |
           (ratio << 8) | 0x5A;
}

}  // namespace tvacr::fp
