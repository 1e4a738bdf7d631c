#include "fp/content.hpp"

#include "fp/audio.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace tvacr::fp {

namespace {

// frame_detail's FNV-1a, one pixel at a time.
constexpr std::uint32_t kFnvOffset = 2166136261U;

std::uint32_t fnv1a(std::uint32_t h, std::uint8_t pixel) { return (h ^ pixel) * 16777619U; }

std::uint16_t fold_detail(std::uint32_t h) { return static_cast<std::uint16_t>(h ^ (h >> 16)); }

}  // namespace

std::string to_string(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast: return "live-broadcast";
        case ContentKind::kFastChannel: return "fast-channel";
        case ContentKind::kOttStream: return "ott-stream";
        case ContentKind::kHdmiDesktop: return "hdmi-desktop";
        case ContentKind::kHdmiConsole: return "hdmi-console";
        case ContentKind::kScreenCast: return "screen-cast";
        case ContentKind::kHomeScreen: return "home-screen";
        case ContentKind::kAdvertisement: return "advertisement";
    }
    return "unknown";
}

std::string to_string(Genre genre) {
    switch (genre) {
        case Genre::kNews: return "news";
        case Genre::kSports: return "sports";
        case Genre::kDrama: return "drama";
        case Genre::kKids: return "kids";
        case Genre::kGaming: return "gaming";
        case Genre::kShopping: return "shopping";
        case Genre::kOther: return "other";
    }
    return "unknown";
}

ContentDynamics ContentDynamics::for_kind(ContentKind kind) {
    switch (kind) {
        case ContentKind::kLiveBroadcast:
            // Fast cutting with ad breaks: short scenes, almost never static.
            return {SimTime::millis(3500), 0.02, 1.0};
        case ContentKind::kFastChannel:
            // FAST carries even more ad creative than linear: slightly
            // shorter scenes.
            return {SimTime::millis(3000), 0.02, 1.0};
        case ContentKind::kOttStream:
            return {SimTime::millis(4500), 0.03, 1.0};
        case ContentKind::kHdmiDesktop:
            // Laptop browsing: long dwell on pages, frequent fully static
            // intervals, sparse motion while reading.
            return {SimTime::seconds(9), 0.20, 0.45};
        case ContentKind::kHdmiConsole:
            // Console gameplay: HUD-heavy but in near-constant motion.
            return {SimTime::seconds(6), 0.05, 0.82};
        case ContentKind::kScreenCast:
            return {SimTime::seconds(7), 0.25, 0.7};
        case ContentKind::kHomeScreen:
            // Launcher: essentially a still image with a rare carousel tick.
            return {SimTime::seconds(45), 0.90, 0.05};
        case ContentKind::kAdvertisement:
            return {SimTime::millis(1800), 0.01, 1.0};
    }
    return {};
}

ContentStream::ContentStream(std::uint64_t seed, ContentDynamics dynamics, int width, int height)
    : seed_(seed),
      dynamics_(dynamics),
      width_(width),
      height_(height),
      schedule_rng_(derive_seed(seed, /*label=*/0x5CEDu)) {
    // Cell bounds exactly as downsample(frame, kGridW, kGridH) draws them.
    const auto bounds = [](std::size_t cell, std::size_t cells, int size) {
        const int lo = static_cast<int>(cell) * size / static_cast<int>(cells);
        const int hi = static_cast<int>(cell + 1) * size / static_cast<int>(cells);
        return Span{lo, std::max(hi, lo + 1)};
    };
    for (std::size_t gx = 0; gx < kGridW; ++gx) cell_x_[gx] = bounds(gx, kGridW, width);
    for (std::size_t gy = 0; gy < kGridH; ++gy) cell_y_[gy] = bounds(gy, kGridH, height);
}

void ContentStream::ensure_schedule(SimTime t) const {
    while (scene_ends_.empty() || scene_ends_.back() <= t) {
        const SimTime previous_end = scene_ends_.empty() ? SimTime{} : scene_ends_.back();
        // Scene lengths: exponential-ish around the mean, floored at 400 ms.
        const double mean_us = static_cast<double>(dynamics_.mean_scene_length.as_micros());
        double draw = -mean_us * std::log(1.0 - schedule_rng_.uniform01());
        draw = std::max(draw, 400'000.0);
        scene_ends_.push_back(previous_end + SimTime::micros(static_cast<std::int64_t>(draw)));
    }
}

std::size_t ContentStream::scene_index_at(SimTime t) const {
    ensure_schedule(t);
    const auto it = std::upper_bound(scene_ends_.begin(), scene_ends_.end(), t);
    return static_cast<std::size_t>(it - scene_ends_.begin());
}

bool ContentStream::scene_is_static(std::size_t scene_index) const {
    const std::uint64_t h = splitmix64(seed_ ^ (scene_index * 0x9E3779B97F4A7C15ULL) ^ 0x57A7);
    return (static_cast<double>(h >> 11) * 0x1.0p-53) < dynamics_.static_scene_fraction;
}

bool ContentStream::dhash_bit(const CellSums& sum, int bit) const {
    // downsample's cell mean, compared as dhash compares it.
    const auto mean = [&](std::size_t gx, std::size_t gy) {
        return sum[gy * kGridW + gx] / (cell_x_[gx].size() * cell_y_[gy].size());
    };
    const auto gx = static_cast<std::size_t>(bit) % (kGridW - 1);
    const auto gy = static_cast<std::size_t>(bit) / (kGridW - 1);
    return mean(gx, gy) < mean(gx + 1, gy);
}

const ContentStream::Basis& ContentStream::basis_at(SimTime t) const {
    const std::size_t scene = scene_index_at(t);
    if (basis_.scene == scene) return basis_;
    Basis& basis = basis_;
    basis.scene = scene;
    basis.scene_seed = splitmix64(seed_ ^ (scene * 0xD1B54A32D192ED03ULL));
    basis.is_static = scene_is_static(scene);

    Frame frame = make_frame(width_, height_);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            // Coarse blocks give the frame spatial structure a perceptual
            // hash keys on; the fine term adds texture.
            const std::uint64_t block =
                splitmix64(basis.scene_seed ^ (static_cast<std::uint64_t>(x / 4) << 16) ^
                           static_cast<std::uint64_t>(y / 4));
            const std::uint64_t fine =
                splitmix64(basis.scene_seed ^ (static_cast<std::uint64_t>(x) << 20) ^
                           (static_cast<std::uint64_t>(y) << 8) ^ 1);
            frame.at(x, y) =
                static_cast<std::uint8_t>(((block & 0xFF) * 3 + (fine & 0xFF)) / 4);
        }
    }
    for (std::size_t gy = 0; gy < kGridH; ++gy) {
        for (std::size_t gx = 0; gx < kGridW; ++gx) {
            int sum = 0;
            for (int y = cell_y_[gy].begin; y < cell_y_[gy].end; ++y) {
                for (int x = cell_x_[gx].begin; x < cell_x_[gx].end; ++x) sum += frame.at(x, y);
            }
            basis.cell_sum[gy * kGridW + gx] = sum;
        }
    }
    basis.video = 0;
    for (int bit = 0; bit < 64; ++bit) {
        if (dhash_bit(basis.cell_sum, bit)) basis.video |= 1ULL << bit;
    }
    basis.luma = std::move(frame.luma);
    basis.fnv.resize(basis.luma.size() + 1);
    basis.fnv[0] = kFnvOffset;
    for (std::size_t i = 0; i < basis.luma.size(); ++i) {
        basis.fnv[i + 1] = fnv1a(basis.fnv[i], basis.luma[i]);
    }
    return basis;
}

ContentStream::Motion ContentStream::motion_at(const Basis& basis, SimTime t) const {
    // Motion: within non-static scenes, most frames get a handful of
    // deterministic pixel perturbations, so consecutive hashes differ
    // slightly (as real video does) while staying within matching distance
    // of the scene's reference hash.
    Motion motion;
    if (basis.is_static) return motion;
    const std::uint64_t frame_index = static_cast<std::uint64_t>(t.as_millis() / 10);
    const std::uint64_t motion_seed = splitmix64(basis.scene_seed ^ frame_index ^ 0x4070104Eu);
    const double gate = static_cast<double>(splitmix64(motion_seed) >> 11) * 0x1.0p-53;
    if (gate < dynamics_.motion_rate) {
        // Perceptually small perturbation: two pixels shift slightly, so
        // the perceptual hash moves by at most a couple of bits (real
        // ACR hashes are similarly robust to inter-frame motion) while
        // the fine-grained frame digest always changes.
        std::uint64_t h = motion_seed;
        for (int k = 0; k < 2; ++k) {
            h = splitmix64(h);
            const int x = static_cast<int>(h % static_cast<std::uint64_t>(width_));
            const int y = static_cast<int>((h >> 16) % static_cast<std::uint64_t>(height_));
            const std::size_t index =
                static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(x);
            const std::uint8_t before = motion.count == 1 && motion.edits[0].index == index
                                            ? motion.edits[0].after
                                            : basis.luma[index];
            motion.edits[motion.count++] =
                PixelEdit{x, y, index, before, static_cast<std::uint8_t>(before + 25)};
        }
    }
    return motion;
}

Frame ContentStream::frame_at(SimTime t) const {
    const Basis& basis = basis_at(t);
    Frame frame{width_, height_, basis.luma};
    const Motion motion = motion_at(basis, t);
    for (std::size_t k = 0; k < motion.count; ++k) {
        frame.luma[motion.edits[k].index] = motion.edits[k].after;
    }
    return frame;
}

FrameFingerprint ContentStream::fingerprint_at(SimTime t) const {
    const Basis& basis = basis_at(t);
    const Motion motion = motion_at(basis, t);
    if (motion.count == 0) return {basis.video, fold_detail(basis.fnv.back())};

    // dhash: move the sums of the cells that contain each edited pixel
    // (several, on frames narrower than the grid), then redo the
    // comparison bits that read those cells.
    CellSums sum = basis.cell_sum;
    std::uint64_t dirty = 0;
    for (std::size_t k = 0; k < motion.count; ++k) {
        const PixelEdit& edit = motion.edits[k];
        for (std::size_t gy = 0; gy < kGridH; ++gy) {
            if (!cell_y_[gy].contains(edit.y)) continue;
            for (std::size_t gx = 0; gx < kGridW; ++gx) {
                if (!cell_x_[gx].contains(edit.x)) continue;
                sum[gy * kGridW + gx] += int{edit.after} - int{edit.before};
                const std::size_t bit = gy * (kGridW - 1) + gx;
                if (gx > 0) dirty |= 1ULL << (bit - 1);
                if (gx < kGridW - 1) dirty |= 1ULL << bit;
            }
        }
    }
    VideoHash video = basis.video;
    for (; dirty != 0; dirty &= dirty - 1) {
        const int bit = std::countr_zero(dirty);
        video = (video & ~(1ULL << bit)) | (VideoHash{dhash_bit(sum, bit)} << bit);
    }

    // frame_detail: resume FNV-1a from the first edited pixel. When both
    // edits hit one pixel, the later edit holds its final value.
    auto order = motion.edits;
    if (motion.count == 2 && order[1].index < order[0].index) std::swap(order[0], order[1]);
    const std::vector<std::uint8_t>& luma = basis.luma;
    std::uint32_t h = basis.fnv[order[0].index];
    std::size_t next = order[0].index;
    for (std::size_t k = 0; k < motion.count; ++k) {
        if (k + 1 < motion.count && order[k + 1].index == order[k].index) continue;
        for (; next < order[k].index; ++next) h = fnv1a(h, luma[next]);
        h = fnv1a(h, order[k].after);
        next = order[k].index + 1;
    }
    for (; next < luma.size(); ++next) h = fnv1a(h, luma[next]);
    return {video, fold_detail(h)};
}

SimTime ContentStream::scene_start(std::size_t scene_index) const {
    if (scene_index == 0) return SimTime{};
    ensure_schedule(SimTime{});
    while (scene_ends_.size() < scene_index) ensure_schedule(scene_ends_.back());
    return scene_ends_[scene_index - 1];
}

AudioWindow ContentStream::audio_at(SimTime t) const {
    // The client aligns its analysis window to the last audio onset (the
    // scene boundary), so captures within one scene analyze the same window
    // — a real PCM -> Goertzel filter-bank pass, not a lookup table.
    const std::size_t scene = scene_index_at(t);
    for (const auto& [cached_scene, window] : audio_cache_) {
        if (cached_scene == scene) return window;
    }
    const PcmChunk pcm = synthesize_audio(*this, scene_start(scene), SimTime::millis(100));
    const AudioWindow window = analyze_window(pcm.samples);
    if (audio_cache_.size() >= 8) audio_cache_.erase(audio_cache_.begin());
    audio_cache_.emplace_back(scene, window);
    return window;
}

}  // namespace tvacr::fp
